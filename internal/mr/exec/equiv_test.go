package exec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/bench"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// TestMain routes spawned copies of the test binary into the worker loop:
// the proc backend's default worker command re-executes the current
// executable, which for these tests is the test binary itself.
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
// crashes, a whole-node crash (realized as a real SIGKILL under proc), and
// speculation. Plans are kept separate — combining node-crash with
// speculation is the one corner where local and proc may legitimately pick
// different winner indices (backups skip the simulated node check), which
// would break metrics equality without affecting output bytes.
var equivPlans = []struct {
	name  string
	spec  string
	slack float64
}{
	{"clean", "", 0},
	{"crash", "*:map:*:crash,*:reduce:*:mid-emit@4", 0},
	{"node-crash", "*:node:1:node-crash", 0},
	{"speculate", "*:map:*:slow@2,*:reduce:2:slow@2", 0.0005},
}

type equivRun struct {
	res      *cube.Result
	metrics  mr.JobMetrics
	doc      []byte // the -metrics-out document, through bench.StripVolatile
	sim      float64
	checksum uint64
}

// runBackend executes one algorithm over one backend. A nil executor is
// the in-process local backend; otherwise the caller passes a fresh Proc
// and runBackend closes it, asserting no worker process or socket
// directory survives.
func runBackend(t *testing.T, fn cube.ComputeFunc, rel *relation.Relation, parallelism int,
	spec string, slack float64, p *Proc) equivRun {
	t.Helper()
	plan, err := mr.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mr.Config{Workers: 6, Seed: 42, Parallelism: parallelism, Faults: plan,
		SpeculativeSlack: slack, MaxAttempts: 6}
	if p != nil {
		cfg.Executor = p
	}
	eng := mr.New(cfg, dfs.New(false))
	run, err := fn(eng, rel, cube.Spec{Agg: agg.Count})
	if p != nil {
		pids := p.WorkerPIDs()
		dir := p.dir
		p.Close()
		if n := p.LiveWorkers(); n != 0 {
			t.Errorf("%d live workers after Close", n)
		}
		for _, pid := range pids {
			if pidAlive(pid) {
				t.Errorf("worker pid %d still alive after Close", pid)
			}
		}
		if dir != "" {
			if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
				t.Errorf("socket dir %s survived Close (stat err: %v)", dir, serr)
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(&run.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if doc, err = bench.StripVolatile(doc); err != nil {
		t.Fatal(err)
	}
	return equivRun{
		res:      res,
		metrics:  run.Metrics.WithoutVolatile(),
		doc:      doc,
		sim:      run.Metrics.Totals().SimSeconds,
		checksum: eng.FS.TotalChecksum(run.OutputPrefix),
	}
}

// newTestProc builds a proc backend for the equivalence tests: the worker
// command is the test binary itself (via TestMain/MaybeWorkerMain), and
// the restart budget is raised so per-round node-crash plans in
// multi-round algorithms never exhaust it — budget exhaustion would drain
// placement differently from the local backend.
func newTestProc() *Proc {
	return NewProc(Options{RestartLimit: 64})
}

// TestBackendDeterminismProc is the backend-equivalence table: every
// algorithm under every fault plan must produce byte-identical cube
// output, DFS checksums, simulated time and volatile-stripped metrics
// (struct and JSON document alike) on the proc backend — real worker processes, real SIGKILLs — as on the
// in-process local backend, at parallelism 1 and 8, with no leaked worker
// processes or socket directories.
func TestBackendDeterminismProc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	rel := data.GenBinomial(500, 3, 0.4, 31)
	for _, fp := range equivPlans {
		for _, a := range equivAlgorithms {
			t.Run(fp.name+"/"+a.name, func(t *testing.T) {
				local := runBackend(t, a.fn, rel, 1, fp.spec, fp.slack, nil)
				for _, par := range []int{1, 8} {
					proc := runBackend(t, a.fn, rel, par, fp.spec, fp.slack, newTestProc())
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
					if !reflect.DeepEqual(local.metrics, proc.metrics) {
						t.Errorf("%s: volatile-stripped metrics differ from local:\nlocal: %+v\nproc:  %+v",
							label, local.metrics, proc.metrics)
					}
					// The document-level strip reads the same volatile list: a
					// node-crash run restarts real workers, and those health
					// counters must not survive it.
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
				got := runBackend(t, a.fn, w.rel, 8, spec, 0, newTestProc())
				if ok, diff := want.Equal(got.res); !ok {
					t.Errorf("proc backend diverges from brute force: %s", diff)
				}
			})
		}
	}
}
