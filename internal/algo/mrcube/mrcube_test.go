package mrcube

import (
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
)

func TestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		n, d, card, k int
	}{
		{100, 2, 3, 2},
		{400, 3, 4, 4},
		{500, 4, 6, 5},
	} {
		rel := cubetest.RandomRelation(rng, tc.n, tc.d, tc.card)
		if err := cubetest.CheckAgainstBrute(Compute, rel, agg.Count, tc.k); err != nil {
			t.Errorf("count: %v", err)
		}
		if err := cubetest.CheckAgainstBrute(Compute, rel, agg.Sum, tc.k); err != nil {
			t.Errorf("sum: %v", err)
		}
	}
}

func TestMatchesBruteForceSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range []float64{0, 0.3, 0.7, 1} {
		rel := cubetest.SkewedRelation(rng, 500, 3, p, 4)
		if err := cubetest.CheckAgainstBrute(Compute, rel, agg.Count, 5); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
}

func TestValuePartitioningProducesMergeRound(t *testing.T) {
	// Heavy skew must make at least one cuboid reducer-unfriendly, which
	// forces the post-aggregation round.
	rng := rand.New(rand.NewSource(6))
	rel := cubetest.SkewedRelation(rng, 2000, 3, 0.9, 1)
	eng := cubetest.NewEngine(4)
	run, err := Compute(eng, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Metrics.Rounds) < 3 {
		t.Errorf("expected sampling + materialize + merge rounds, got %d rounds", len(run.Metrics.Rounds))
	}
	res, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	want := cube.Brute(rel, agg.Count)
	if ok, diff := want.Equal(res); !ok {
		t.Errorf("cube mismatch after merge round: %s", diff)
	}
}

func TestNoSkewMeansSingleMaterializeRound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rel := cubetest.RandomRelation(rng, 1000, 3, 1_000_000)
	eng := cubetest.NewEngine(4)
	run, err := Compute(eng, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform near-distinct data: only the apex group is skewed, so only
	// the apex cuboid is value-partitioned; no cuboid triggers recursion.
	if got := len(run.Metrics.Rounds); got > 3 {
		t.Errorf("uniform data should need at most sample+materialize+merge, got %d rounds", got)
	}
}
