package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// zeroRecovery strips, on top of the volatile fields, the recovery
// accounting (task attempts, wasted bytes, map re-executions, fetch failures
// and the speculation counters) — the only counters a faulted run is allowed
// to differ from a fault-free run on.
func zeroRecovery(m mr.JobMetrics) mr.JobMetrics {
	return m.WithoutVolatile("retries", "attempts", "wastedBytes", "mapReexecutions", "reexecutions",
		"fetchFailures", "speculativeLaunched", "speculativeWon", "speculativeKilled")
}

type diffRun struct {
	res      *cube.Result
	metrics  mr.JobMetrics // recovery-stripped
	retries  int64
	shuffle  int64
	checksum uint64
	records  int64
}

// runWithFaults executes one cube algorithm under a fault plan with
// MaxAttempts 2 — every injected first-attempt failure must be recovered by
// exactly one retry.
func runWithFaults(t *testing.T, fn cube.ComputeFunc, rel *relation.Relation, spec string, parallelism int) diffRun {
	t.Helper()
	plan, err := mr.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := mr.New(mr.Config{Workers: 6, Seed: 42, Parallelism: parallelism,
		Faults: plan, MaxAttempts: 2}, dfs.New(false))
	run, err := fn(eng, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	return diffRun{
		res:      res,
		metrics:  zeroRecovery(run.Metrics),
		retries:  run.Metrics.Totals().Retries,
		shuffle:  run.Metrics.Totals().ShuffleBytes,
		checksum: eng.FS.TotalChecksum(run.OutputPrefix),
		records:  eng.FS.TotalRecords(run.OutputPrefix),
	}
}

// diffWorkloads spans the distribution extremes the paper targets: uniform,
// Zipf-skewed, and the degenerate all-duplicates relation where every
// c-group of every cuboid is a single skewed group.
var diffWorkloads = []struct {
	name string
	rel  *relation.Relation
}{
	{"uniform", cubetest.RandomRelation(rand.New(rand.NewSource(51)), 400, 3, 50)},
	{"zipf", data.GenZipf(400, 29)},
	{"all-duplicate", cubetest.RandomRelation(rand.New(rand.NewSource(53)), 400, 3, 1)},
}

// faultMatrix injects every fault kind into every map and reduce task of
// every round (first attempts only, so MaxAttempts 2 recovers all of them).
var faultMatrix = []struct {
	name          string
	spec          string
	expectRetries bool
}{
	{"crash", "*:map:*:crash,*:reduce:*:crash", true},
	{"mid-emit", "*:map:*:mid-emit@2,*:reduce:*:mid-emit@2", true},
	{"slow", "*:map:*:slow@1,*:reduce:*:slow@1", false},
	{"oom", "*:map:*:oom,*:reduce:*:oom", true},
	// A whole failure domain dies at every shuffle barrier: its completed
	// map output must be re-executed and its reduce attempts re-placed.
	{"node-crash", "*:node:1:node-crash", true},
}

// TestDifferentialOracleUnderFaults is the cross-algorithm differential
// oracle: every algorithm, on every distribution, under every fault kind, at
// parallelism 1 and 8, must produce the exact brute-force cube, byte-identical
// DFS output, identical ShuffleBytes, and identical metrics (recovery
// accounting aside) to its own fault-free run.
func TestDifferentialOracleUnderFaults(t *testing.T) {
	for _, w := range diffWorkloads {
		want := cube.Brute(w.rel, agg.Count)
		for _, a := range allAlgorithms {
			t.Run(w.name+"/"+a.name, func(t *testing.T) {
				clean := runWithFaults(t, a.fn, w.rel, "", 1)
				if ok, diff := want.Equal(clean.res); !ok {
					t.Fatalf("fault-free run wrong vs brute force: %s", diff)
				}
				if clean.retries != 0 {
					t.Fatalf("fault-free run reports %d retries", clean.retries)
				}
				for _, fk := range faultMatrix {
					for _, par := range []int{1, 8} {
						label := fmt.Sprintf("%s/par=%d", fk.name, par)
						got := runWithFaults(t, a.fn, w.rel, fk.spec, par)
						if ok, diff := clean.res.Equal(got.res); !ok {
							t.Errorf("%s: cube output diverges from fault-free run: %s", label, diff)
						}
						if got.checksum != clean.checksum || got.records != clean.records {
							t.Errorf("%s: DFS output diverges: checksum %x/%d records vs %x/%d records",
								label, got.checksum, got.records, clean.checksum, clean.records)
						}
						if got.shuffle != clean.shuffle {
							t.Errorf("%s: ShuffleBytes = %d, want %d", label, got.shuffle, clean.shuffle)
						}
						if !reflect.DeepEqual(got.metrics, clean.metrics) {
							t.Errorf("%s: metrics diverge beyond recovery accounting:\nfaulted: %+v\nclean:   %+v",
								label, got.metrics, clean.metrics)
						}
						if fk.expectRetries && got.retries == 0 {
							t.Errorf("%s: fault plan did not fire", label)
						}
						if !fk.expectRetries && got.retries != 0 {
							t.Errorf("%s: slow tasks must not retry, got %d retries", label, got.retries)
						}
					}
				}
			})
		}
	}
}

// TestDifferentialOracleSpill adds out-of-core legs to the oracle: with the
// spill budget forcing a run-file flush per record (budget 1) or a handful
// of flushes per task (budget 512), through the raw and lz block codecs,
// and with a fan-in cap of 2 forcing multi-pass intermediate merges, every
// algorithm on every distribution must still produce the exact brute-force
// cube and byte-identical DFS output, clean and under crash and node-crash
// plans, leaking no run files.
func TestDifferentialOracleSpill(t *testing.T) {
	spillFaults := []struct {
		name string
		spec string
	}{
		{"clean", ""},
		{"crash", "*:map:*:crash,*:reduce:*:crash"},
		{"node-crash", "*:node:1:node-crash"},
	}
	for _, w := range diffWorkloads {
		want := cube.Brute(w.rel, agg.Count)
		for _, a := range allAlgorithms {
			t.Run(w.name+"/"+a.name, func(t *testing.T) {
				clean := runWithFaults(t, a.fn, w.rel, "", 1)
				legs := []spillLeg{
					{budget: 1}, {budget: 512},
					{budget: 512, codec: "lz", fanIn: 2},
				}
				for _, fk := range spillFaults {
					for _, leg := range legs {
						budget := leg.budget
						label := fmt.Sprintf("%s/%s", fk.name, leg)
						dir := t.TempDir()
						plan, err := mr.ParseFaultPlan(fk.spec)
						if err != nil {
							t.Fatal(err)
						}
						eng := mr.New(mr.Config{Workers: 6, Seed: 42, Parallelism: 8,
							Faults: plan, MaxAttempts: 2,
							SpillBudgetBytes: budget, SpillDir: dir,
							SpillCodec: leg.codec, MergeFanIn: leg.fanIn}, dfs.New(false))
						run, err := a.fn(eng, w.rel, cube.Spec{Agg: agg.Count})
						if err != nil {
							t.Fatal(err)
						}
						res, err := cube.CollectDFS(eng, run.OutputPrefix, w.rel.D(), cube.Spec{Agg: agg.Count})
						if err != nil {
							t.Fatal(err)
						}
						if ok, diff := want.Equal(res); !ok {
							t.Errorf("%s: cube diverges from brute force: %s", label, diff)
						}
						if got := eng.FS.TotalChecksum(run.OutputPrefix); got != clean.checksum {
							t.Errorf("%s: DFS output %x differs from in-memory clean run %x", label, got, clean.checksum)
						}
						// At budget 1 every emitting map task flushes; 512 may
						// legitimately fit a small task's whole output.
						if budget == 1 && run.Metrics.Totals().Spills == 0 {
							t.Errorf("%s: spill budget did not fire", label)
						}
						if leaked := filesUnder(t, dir); len(leaked) != 0 {
							t.Errorf("%s: leaked spill files: %v", label, leaked)
						}
					}
				}
			})
		}
	}
}
