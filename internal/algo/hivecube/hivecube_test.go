package hivecube

import (
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// noOOM disables the OOM failure so correctness can be checked even under
// memory pressure.
func noOOM(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	return ComputeOpts(eng, rel, spec, Options{DisableOOM: true})
}

func TestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ n, d, card, k int }{
		{100, 2, 3, 2},
		{400, 3, 4, 4},
		{500, 4, 6, 5},
	} {
		rel := cubetest.RandomRelation(rng, tc.n, tc.d, tc.card)
		if err := cubetest.CheckAgainstBrute(noOOM, rel, agg.Count, tc.k); err != nil {
			t.Errorf("count: %v", err)
		}
		if err := cubetest.CheckAgainstBrute(noOOM, rel, agg.Avg, tc.k); err != nil {
			t.Errorf("avg: %v", err)
		}
	}
}

func TestMatchesBruteForceSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, p := range []float64{0, 0.4, 0.9} {
		rel := cubetest.SkewedRelation(rng, 500, 3, p, 4)
		if err := cubetest.CheckAgainstBrute(noOOM, rel, agg.Count, 5); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
}

func TestHashFlushBoundsMapperMemory(t *testing.T) {
	// With a tiny hash capacity, the mapper must flush repeatedly: output
	// records exceed the hash capacity but the cube must stay correct.
	rng := rand.New(rand.NewSource(16))
	rel := cubetest.RandomRelation(rng, 300, 3, 50)
	f := func(eng *mr.Engine, r *relation.Relation, spec cube.Spec) (*cube.Run, error) {
		return ComputeOpts(eng, r, spec, Options{HashEntries: 16, DisableOOM: true})
	}
	if err := cubetest.CheckAgainstBrute(f, rel, agg.Sum, 3); err != nil {
		t.Error(err)
	}
}

func TestDisableMapAggregationModel(t *testing.T) {
	// The min-reduction-heuristic model: no map-side aggregation, so the
	// shuffle is the raw 2^d expansion — larger than with the hash — and
	// the cube stays correct.
	rng := rand.New(rand.NewSource(18))
	rel := cubetest.SkewedRelation(rng, 800, 3, 0.5, 3)
	raw := func(eng *mr.Engine, r *relation.Relation, spec cube.Spec) (*cube.Run, error) {
		return ComputeOpts(eng, r, spec, Options{DisableMapAggregation: true, DisableOOM: true})
	}
	if err := cubetest.CheckAgainstBrute(raw, rel, agg.Count, 4); err != nil {
		t.Fatal(err)
	}

	engRaw := cubetest.NewEngine(4)
	runRaw, err := raw(engRaw, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	engHash := cubetest.NewEngine(4)
	runHash, err := ComputeOpts(engHash, rel, cube.Spec{Agg: agg.Count}, Options{DisableOOM: true})
	if err != nil {
		t.Fatal(err)
	}
	if runRaw.Metrics.Totals().ShuffleRecords != int64(rel.N())*8 {
		t.Errorf("raw shuffle = %d records, want n*2^d = %d", runRaw.Metrics.Totals().ShuffleRecords, rel.N()*8)
	}
	if runRaw.Metrics.Totals().ShuffleRecords <= runHash.Metrics.Totals().ShuffleRecords {
		t.Errorf("disabling map aggregation should increase shuffle: %d vs %d",
			runRaw.Metrics.Totals().ShuffleRecords, runHash.Metrics.Totals().ShuffleRecords)
	}
}
