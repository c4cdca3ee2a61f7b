package spcube

import (
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

func TestMatchesBruteForceUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, d, card, k int }{
		{50, 2, 3, 2},
		{200, 3, 4, 4},
		{500, 4, 5, 5},
		{300, 3, 100, 3},
		{64, 1, 2, 2},
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
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0, 0.2, 0.5, 0.9, 1} {
		rel := cubetest.SkewedRelation(rng, 400, 3, p, 5)
		if err := cubetest.CheckAgainstBrute(Compute, rel, agg.Count, 4); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
}

func TestMatchesBruteForceAllAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := cubetest.SkewedRelation(rng, 300, 3, 0.4, 3)
	for _, f := range []agg.Func{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Avg} {
		if err := cubetest.CheckAgainstBrute(Compute, rel, f, 4); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestAblationVariantsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := cubetest.SkewedRelation(rng, 400, 3, 0.5, 4)
	for name, opts := range map[string]Options{
		"no-skew-handling": {DisableSkewHandling: true},
		"no-factorization": {DisableFactorization: true},
		"both-disabled":    {DisableSkewHandling: true, DisableFactorization: true},
	} {
		f := func(eng *mr.Engine, r *relation.Relation, spec cube.Spec) (*cube.Run, error) {
			return ComputeOpts(eng, r, spec, opts)
		}
		if err := cubetest.CheckAgainstBrute(f, rel, agg.Count, 4); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSkewAndGroupOutputsDisjoint(t *testing.T) {
	// Every group must be produced exactly once: the result collection in
	// CheckAgainstBrute would not catch a group emitted twice with the
	// same value (map overwrite), so count output records explicitly.
	rng := rand.New(rand.NewSource(5))
	rel := cubetest.SkewedRelation(rng, 500, 3, 0.6, 4)
	eng := cubetest.NewEngine(5)
	res, run, err := cubetest.RunAndCollect(eng, Compute, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	outRecs := eng.FS.TotalRecords(run.OutputPrefix)
	if int64(res.Len()) != outRecs {
		t.Errorf("output records %d != distinct groups %d: some group emitted more than once", outRecs, res.Len())
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := cubetest.SkewedRelation(rng, 300, 3, 0.3, 4)
	checks := make([]uint64, 2)
	shuffles := make([]int64, 2)
	for i := range checks {
		eng := cubetest.NewEngine(4)
		run, err := Compute(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		checks[i] = eng.FS.TotalChecksum(run.OutputPrefix)
		shuffles[i] = run.Metrics.Totals().ShuffleBytes
	}
	if checks[0] != checks[1] {
		t.Errorf("non-deterministic output: %x vs %x", checks[0], checks[1])
	}
	if shuffles[0] != shuffles[1] {
		t.Errorf("non-deterministic shuffle: %d vs %d", shuffles[0], shuffles[1])
	}
}
