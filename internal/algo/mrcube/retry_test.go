package mrcube

import (
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
)

// TestIdenticalUnderRetry is the regression test for MR-Cube's two pieces of
// retry-sensitive state: the sampling RNG (engine-issued task state — a
// resumed stream would yield a different partition plan and different
// ShuffleBytes) and the shared oversizedSet (replayed reducer attempts must
// record sampling failures idempotently).
func TestIdenticalUnderRetry(t *testing.T) {
	rel := cubetest.SkewedRelation(rand.New(rand.NewSource(6)), 2000, 3, 0.9, 1)
	run := func(spec string) (*cube.Result, *cube.Run) {
		t.Helper()
		plan, err := mr.ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng := mr.New(mr.Config{Workers: 4, Faults: plan}, dfs.New(false))
		res, runInfo, err := cubetest.RunAndCollect(eng, Compute, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		return res, runInfo
	}
	cleanRes, cleanRun := run("")
	faultRes, faultRun := run("*:map:*:mid-emit@3,*:reduce:*:crash")
	if faultRun.Metrics.Totals().Retries == 0 {
		t.Fatal("fault plan did not fire")
	}
	if ok, diff := cleanRes.Equal(faultRes); !ok {
		t.Errorf("faulted MR-Cube output diverges: %s", diff)
	}
	if len(cleanRun.Metrics.Rounds) != len(faultRun.Metrics.Rounds) {
		t.Fatalf("round count diverges: %d vs %d",
			len(cleanRun.Metrics.Rounds), len(faultRun.Metrics.Rounds))
	}
	for i := range cleanRun.Metrics.Rounds {
		c, f := &cleanRun.Metrics.Rounds[i], &faultRun.Metrics.Rounds[i]
		if c.ShuffleBytes != f.ShuffleBytes || c.ShuffleRecords != f.ShuffleRecords {
			t.Errorf("round %d shuffle diverges: %d/%d B vs %d/%d B — retried sampling changed the plan",
				i, c.ShuffleRecords, c.ShuffleBytes, f.ShuffleRecords, f.ShuffleBytes)
		}
		if c.OutputRecords != f.OutputRecords {
			t.Errorf("round %d output records diverge: %d vs %d", i, c.OutputRecords, f.OutputRecords)
		}
	}
	// Ground truth: the faulted run is still the correct cube.
	want := cube.Brute(rel, agg.Count)
	if ok, diff := want.Equal(faultRes); !ok {
		t.Errorf("faulted run wrong vs brute force: %s", diff)
	}
}
