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
	// 300 tuples on 3 machines give the smallest hash capacity, 16 (m/32 =
	// 3, floored), so the mapper must flush repeatedly: output records
	// exceed the hash capacity but the cube must stay correct.
	rng := rand.New(rand.NewSource(16))
	rel := cubetest.RandomRelation(rng, 300, 3, 50)
	if err := cubetest.CheckAgainstBrute(noOOM, rel, agg.Sum, 3); err != nil {
		t.Error(err)
	}
}
