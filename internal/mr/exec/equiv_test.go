package exec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// TestMain routes spawned copies of the test binary into the worker loop:
// the proc backend re-executes the current executable, which for these
// tests is the test binary itself.
func TestMain(m *testing.M) {
	MaybeWorkerMain()
	os.Exit(m.Run())
}

func hiveNoOOM(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	return hivecube.ComputeOpts(eng, rel, spec, hivecube.Options{DisableOOM: true})
}

type namedAlgorithm struct {
	name string
	fn   cube.ComputeFunc
}

// equivAlgorithms is the shared algorithm table at the default seed, with
// Hive's OOM failure disabled.
var equivAlgorithms = func() []namedAlgorithm {
	var out []namedAlgorithm
	for _, a := range algo.Table {
		fn := a.New(0)
		if a.Name == "hive" {
			fn = hiveNoOOM
		}
		out = append(out, namedAlgorithm{a.Name, fn})
	}
	return out
}()

// equivPlans is the backend-equivalence fault matrix: clean, injected task
// crashes, and a whole-node crash (realized as a real SIGKILL under proc).
var equivPlans = []struct {
	name string
	spec string
}{
	{"clean", ""},
	{"crash", "*:map:*:crash,*:reduce:*:mid-emit@4"},
	{"node-crash", "*:node:1:node-crash"},
}

type equivRun struct {
	res      *cube.Result
	doc      []byte // the -metrics-out document, through mr.StripVolatile
	sim      float64
	checksum uint64
}

// runBackend executes one algorithm over one backend. A nil executor is
// the in-process local backend; otherwise the caller passes a fresh Proc
// and runBackend closes it, asserting no worker process survives.
func runBackend(t *testing.T, fn cube.ComputeFunc, rel *relation.Relation, parallelism int,
	spec string, p *Proc) equivRun {
	t.Helper()
	plan, err := mr.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mr.Config{Workers: 6, Seed: 42, Parallelism: parallelism, Faults: plan}
	if p != nil {
		cfg.Executor = p
	}
	eng := mr.New(cfg, dfs.New(false))
	run, err := fn(eng, rel, cube.Spec{Agg: agg.Count})
	if p != nil {
		closeAndCheck(t, p, "")
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(&run.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if doc, err = mr.StripVolatile(doc); err != nil {
		t.Fatal(err)
	}
	return equivRun{
		res:      res,
		doc:      doc,
		sim:      run.Metrics.Totals().SimSeconds,
		checksum: eng.FS.TotalChecksum(run.OutputPrefix),
	}
}

// TestBackendDeterminismProc is the backend-equivalence table: every
// algorithm under every fault plan must produce byte-identical cube
// output, DFS checksums, simulated time and volatile-stripped metrics
// documents on the proc backend — real worker processes, real SIGKILLs — as on the
// in-process local backend, at parallelism 1 and 8, with no leaked worker
// processes.
func TestBackendDeterminismProc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	rel := data.GenBinomial(500, 3, 0.4, 31)
	for _, fp := range equivPlans {
		for _, a := range equivAlgorithms {
			t.Run(fp.name+"/"+a.name, func(t *testing.T) {
				local := runBackend(t, a.fn, rel, 1, fp.spec, nil)
				for _, par := range []int{1, 8} {
					proc := runBackend(t, a.fn, rel, par, fp.spec, NewProc())
					label := fmt.Sprintf("proc p=%d", par)
					if ok, diff := local.res.Equal(proc.res); !ok {
						t.Errorf("%s: cube output differs from local: %s", label, diff)
					}
					if local.checksum != proc.checksum {
						t.Errorf("%s: DFS checksum differs from local: %x vs %x", label, proc.checksum, local.checksum)
					}
					if local.sim != proc.sim {
						t.Errorf("%s: simulated seconds differ from local: %v vs %v", label, proc.sim, local.sim)
					}
					if !bytes.Equal(local.doc, proc.doc) {
						t.Errorf("%s: metrics document differs from local after StripVolatile:\nlocal: %s\nproc:  %s",
							label, local.doc, proc.doc)
					}
				}
			})
		}
	}
}

// TestBackendDifferentialProc cross-checks the proc backend against the
// brute-force oracle directly: under a real-SIGKILL node crash combined
// with injected task crashes, the recovered cube must still equal the
// sequential reference computation.
func TestBackendDifferentialProc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	workloads := []struct {
		name string
		rel  *relation.Relation
	}{
		{"skewed", data.GenBinomial(400, 3, 0.4, 31)},
		{"uniform", data.Uniform(400, 3, 9, 32)},
	}
	const spec = "*:map:1:crash,*:node:2:node-crash"
	for _, w := range workloads {
		want := cube.Brute(w.rel, agg.Count)
		for _, a := range equivAlgorithms {
			t.Run(w.name+"/"+a.name, func(t *testing.T) {
				got := runBackend(t, a.fn, w.rel, 8, spec, NewProc())
				if ok, diff := want.Equal(got.res); !ok {
					t.Errorf("proc backend diverges from brute force: %s", diff)
				}
			})
		}
	}
}
