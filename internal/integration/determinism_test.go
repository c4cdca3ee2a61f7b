package integration

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

type detRun struct {
	res      *cube.Result
	metrics  mr.JobMetrics
	sim      float64
	checksum uint64
	records  int64
}

func runDeterminism(t *testing.T, fn cube.ComputeFunc, rel *relation.Relation, parallelism int, faults string, slack, timeout float64) detRun {
	return runDeterminismSpill(t, fn, rel, parallelism, faults, slack, timeout, spillLeg{}, "")
}

// spillLeg is one out-of-core configuration of the determinism table:
// a spill budget plus the pipeline knobs layered on it (block codec,
// merge fan-in cap).
type spillLeg struct {
	budget int64
	codec  string
	fanIn  int
}

func (l spillLeg) String() string {
	return fmt.Sprintf("budget=%d/codec=%s/fanin=%d", l.budget, l.codec, l.fanIn)
}

// runDeterminismSpill is runDeterminism with the out-of-core shuffle
// configured: budget 0 keeps everything in memory, any positive budget
// spills map output to run files under dir, framed through leg.codec and
// merged under leg.fanIn.
func runDeterminismSpill(t *testing.T, fn cube.ComputeFunc, rel *relation.Relation, parallelism int, faults string, slack, timeout float64, leg spillLeg, dir string) detRun {
	t.Helper()
	plan, err := mr.ParseFaultPlan(faults)
	if err != nil {
		t.Fatal(err)
	}
	eng := mr.New(mr.Config{Workers: 6, Seed: 42, Parallelism: parallelism, Faults: plan,
		SpeculativeSlack: slack, TaskTimeout: timeout,
		SpillBudgetBytes: leg.budget, SpillDir: dir,
		SpillCodec: leg.codec, MergeFanIn: leg.fanIn}, dfs.New(false))
	run, err := fn(eng, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D())
	if err != nil {
		t.Fatal(err)
	}
	return detRun{
		res:      res,
		metrics:  run.Metrics.WithoutVolatile(),
		sim:      run.Metrics.Totals().SimSeconds,
		checksum: eng.FS.TotalChecksum(run.OutputPrefix),
		records:  eng.FS.TotalRecords(run.OutputPrefix),
	}
}

// TestParallelismDeterminism is the cross-algorithm determinism table: every
// algorithm, on a skewed and a uniform workload, clean and under an injected
// fault plan, must produce bit-for-bit identical cube output, identical
// round metrics, and identical simulated seconds at parallelism 1 and
// parallelism 8 — and a faulted run's output and accounting (minus the
// recovery counters) must equal the clean run's.
func TestParallelismDeterminism(t *testing.T) {
	detWorkloads := []struct {
		name string
		rel  *relation.Relation
	}{
		{"skewed", data.GenBinomial(800, 4, 0.4, 31)},
		{"uniform", data.Uniform(800, 3, 9, 32)},
	}
	faultPlans := []struct {
		name    string
		spec    string
		slack   float64
		timeout float64
	}{
		{"clean", "", 0, 0},
		{"crash", "*:map:*:crash,*:reduce:*:mid-emit@4", 0, 0},
		{"node-crash", "*:node:1:node-crash", 0, 0},
		{"speculate", "*:map:*:slow@2,*:reduce:2:slow@2", 0.0005, 0},
		{"timeout", "*:reduce:*:slow@2", 0, 0.0005},
	}
	for _, w := range detWorkloads {
		for _, fp := range faultPlans {
			for _, a := range allAlgorithms {
				t.Run(w.name+"/"+fp.name+"/"+a.name, func(t *testing.T) {
					seq := runDeterminism(t, a.fn, w.rel, 1, fp.spec, fp.slack, fp.timeout)
					par := runDeterminism(t, a.fn, w.rel, 8, fp.spec, fp.slack, fp.timeout)
					if ok, diff := seq.res.Equal(par.res); !ok {
						t.Errorf("cube output differs: %s", diff)
					}
					if seq.checksum != par.checksum || seq.records != par.records {
						t.Errorf("DFS output differs: checksum %x/%d records vs %x/%d records",
							seq.checksum, seq.records, par.checksum, par.records)
					}
					if seq.sim != par.sim {
						t.Errorf("simulated seconds differ: %v vs %v", seq.sim, par.sim)
					}
					if !reflect.DeepEqual(seq.metrics, par.metrics) {
						t.Errorf("round metrics differ:\nsequential: %+v\nparallel:   %+v",
							seq.metrics, par.metrics)
					}
					if fp.spec != "" {
						// The faulted run must recover to the clean run's
						// exact output and accounting.
						clean := runDeterminism(t, a.fn, w.rel, 1, "", 0, 0)
						if ok, diff := clean.res.Equal(seq.res); !ok {
							t.Errorf("faulted output differs from clean: %s", diff)
						}
						if clean.checksum != seq.checksum || clean.records != seq.records {
							t.Errorf("faulted DFS output differs from clean: checksum %x/%d vs %x/%d",
								clean.checksum, clean.records, seq.checksum, seq.records)
						}
						if clean.sim != seq.sim {
							t.Errorf("faulted simulated seconds differ from clean: %v vs %v", clean.sim, seq.sim)
						}
						if !reflect.DeepEqual(zeroRecovery(clean.metrics), zeroRecovery(seq.metrics)) {
							t.Errorf("faulted metrics (recovery-stripped) differ from clean")
						}
					}
				})
			}
		}
	}
}

// filesUnder returns every file under dir, recursively — the leak probe for
// spill run files.
func filesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if path != dir {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpillDeterminism extends the determinism table with out-of-core legs:
// at every spill configuration — including a one-byte budget, which flushes
// a run file per emitted record, the lz block codec, and a fan-in cap of 2,
// which forces multi-pass intermediate merges — every algorithm must
// produce the cube output and DFS bytes of the all-in-memory run, stay
// parallelism-deterministic in full (metrics included, at a fixed
// configuration), survive the fault plans, and leak no run files.
func TestSpillDeterminism(t *testing.T) {
	detWorkloads := []struct {
		name string
		rel  *relation.Relation
	}{
		{"skewed", data.GenBinomial(800, 4, 0.4, 31)},
		{"uniform", data.Uniform(800, 3, 9, 32)},
	}
	faultPlans := []struct {
		name string
		spec string
	}{
		{"clean", ""},
		{"crash", "*:map:*:crash,*:reduce:*:mid-emit@4"},
		{"node-crash", "*:node:1:node-crash"},
	}
	legs := []spillLeg{
		{budget: 1}, {budget: 512},
		{budget: 512, codec: "lz", fanIn: 2},
	}
	for _, w := range detWorkloads {
		for _, fp := range faultPlans {
			for _, a := range allAlgorithms {
				t.Run(w.name+"/"+fp.name+"/"+a.name, func(t *testing.T) {
					mem := runDeterminism(t, a.fn, w.rel, 1, "", 0, 0)
					for _, leg := range legs {
						dir := t.TempDir()
						seq := runDeterminismSpill(t, a.fn, w.rel, 1, fp.spec, 0, 0, leg, dir)
						par := runDeterminismSpill(t, a.fn, w.rel, 8, fp.spec, 0, 0, leg, dir)
						// Cross-configuration: output and DFS bytes equal the
						// in-memory clean run's (metrics legitimately differ
						// in spill counters and simulated I/O cost).
						if ok, diff := mem.res.Equal(seq.res); !ok {
							t.Errorf("%s: cube output differs from in-memory run: %s", leg, diff)
						}
						if mem.checksum != seq.checksum || mem.records != seq.records {
							t.Errorf("%s: DFS output differs from in-memory run: %x/%d vs %x/%d",
								leg, seq.checksum, seq.records, mem.checksum, mem.records)
						}
						// Fixed configuration: the full parallelism-determinism
						// contract holds, metrics and simulated time included.
						if seq.checksum != par.checksum || seq.records != par.records {
							t.Errorf("%s: DFS output differs across parallelism: %x/%d vs %x/%d",
								leg, seq.checksum, seq.records, par.checksum, par.records)
						}
						if seq.sim != par.sim {
							t.Errorf("%s: simulated seconds differ across parallelism: %v vs %v",
								leg, seq.sim, par.sim)
						}
						if !reflect.DeepEqual(seq.metrics, par.metrics) {
							t.Errorf("%s: round metrics differ across parallelism", leg)
						}
						if leaked := filesUnder(t, dir); len(leaked) != 0 {
							t.Errorf("%s: leaked spill files: %v", leg, leaked)
						}
					}
				})
			}
		}
	}
}
