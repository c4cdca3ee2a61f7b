package spcube

import (
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

func TestIcebergMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		n, d, card, k, minSup int
	}{
		{400, 3, 3, 4, 5},
		{400, 3, 3, 4, 25},
		{600, 4, 4, 5, 10},
		{300, 2, 50, 3, 2},
	} {
		rel := cubetest.RandomRelation(rng, tc.n, tc.d, tc.card)
		spec := cube.Spec{Agg: agg.Sum, MinSup: tc.minSup}
		eng := cubetest.NewEngine(tc.k)
		res, _, err := cubetest.RunAndCollect(eng, Compute, rel, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := cube.BruteSpec(rel, spec)
		if ok, diff := want.Equal(res); !ok {
			t.Errorf("minSup=%d: %s", tc.minSup, diff)
		}
		// The iceberg cube must shrink exactly as much as the reference
		// does.
		full := cube.Brute(rel, agg.Sum)
		if res.Len() > full.Len() {
			t.Errorf("minSup=%d produced more groups than the full cube (%d vs %d)", tc.minSup, res.Len(), full.Len())
		}
		if want.Len() < full.Len() && res.Len() >= full.Len() {
			t.Errorf("minSup=%d did not shrink the cube (%d vs %d groups)", tc.minSup, res.Len(), full.Len())
		}
	}
}

func TestIcebergSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rel := cubetest.SkewedRelation(rng, 800, 3, 0.6, 3)
	for _, minSup := range []int{2, 10, 100} {
		spec := cube.Spec{Agg: agg.Count, MinSup: minSup}
		eng := cubetest.NewEngine(4)
		res, _, err := cubetest.RunAndCollect(eng, Compute, rel, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := cube.BruteSpec(rel, spec)
		if ok, diff := want.Equal(res); !ok {
			t.Errorf("minSup=%d: %s", minSup, diff)
		}
	}
}

func TestDistinctAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel := cubetest.SkewedRelation(rng, 500, 3, 0.5, 3)
	if err := cubetest.CheckAgainstBrute(Compute, rel, agg.Distinct, 4); err != nil {
		t.Error(err)
	}
}

func TestComputeMultiSharesSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rel := cubetest.SkewedRelation(rng, 600, 3, 0.4, 3)
	eng := cubetest.NewEngine(4)
	specs := []cube.Spec{
		{Agg: agg.Count},
		{Agg: agg.Sum},
		{Agg: agg.Avg, MinSup: 3},
	}
	runs, err := ComputeMulti(eng, rel, specs, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs", len(runs))
	}
	// Only the first run pays the sketch round.
	if got := len(runs[0].Metrics.Rounds); got != 2 {
		t.Errorf("first run should have sketch+cube rounds, got %d", got)
	}
	for i := 1; i < 3; i++ {
		if got := len(runs[i].Metrics.Rounds); got != 1 {
			t.Errorf("run %d should reuse the sketch (1 round), got %d", i, got)
		}
		if runs[i].SketchBytes != runs[0].SketchBytes {
			t.Errorf("run %d reports different sketch size", i)
		}
	}
	// Each output matches its own brute-force reference.
	for i, spec := range specs {
		res, err := cube.CollectDFS(eng, runs[i].OutputPrefix, rel.D(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want := cube.BruteSpec(rel, spec)
		if ok, diff := want.Equal(res); !ok {
			t.Errorf("spec %d (%s): %s", i, spec.Agg.Name(), diff)
		}
	}
}

func TestComputeMultiErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := cubetest.RandomRelation(rng, 50, 2, 3)
	eng := cubetest.NewEngine(2)
	if _, err := ComputeMulti(eng, rel, nil, Options{}); err == nil {
		t.Error("no specs must fail")
	}
}

// TestIcebergAtTheThreshold: the reducer drops a received tuple set smaller
// than the minimum support before decoding it. Sets of exactly minSup-1,
// minSup and minSup+1 rows — as finest groups, and again where a coarser
// cuboid folds them together — must come out as brute force has them, under
// every aggregate.
func TestIcebergAtTheThreshold(t *testing.T) {
	const minSup = 5
	rel := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b", "c"}, MeasureName: "m"}}
	id := relation.Value(0)
	for _, size := range []int{minSup - 1, minSup, minSup + 1} {
		for rep := 0; rep < 6; rep++ {
			id++
			for i := 0; i < size; i++ {
				// a names the set, b pairs it with one other, c is one of
				// three values: 2^3 cuboids with sets of every size around
				// the threshold and far above it.
				rel.Append([]relation.Value{id, id / 2, id % 3}, int64(7*i)-int64(id))
			}
		}
	}
	for _, name := range []string{"count", "sum", "min", "max", "avg", "var", "stddev", "distinct"} {
		f, err := agg.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			spec := cube.Spec{Agg: f, MinSup: minSup}
			res, _, err := cubetest.RunAndCollect(cubetest.NewEngine(k), Compute, rel, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := cube.BruteSpec(rel, spec)
			if ok, diff := want.Equal(res); !ok {
				t.Errorf("%s, k=%d: %s", name, k, diff)
			}
			if _, ok := res.Lookup(0b001, []relation.Value{1, 0, 0}); ok {
				t.Errorf("%s, k=%d: a group of %d rows passed minimum support %d", name, k, minSup-1, minSup)
			}
			if _, ok := res.Lookup(0b001, []relation.Value{7, 0, 0}); !ok {
				t.Errorf("%s, k=%d: a group of exactly %d rows is missing", name, k, minSup)
			}
		}
	}
}

// TestGroupsBelowMinSupAllocateNothing: the reducer returns from a set(g)
// below the iceberg threshold before it scans the key or decodes a tuple, so
// on a skewed relation, where most sets are that small, most reduce calls
// allocate nothing. Each such call of a real run is measured in place, with
// the engine's own reduce context, on one goroutine.
func TestGroupsBelowMinSupAllocateNothing(t *testing.T) {
	const k, minSup = 4, 10
	rel := data.GenBinomial(6000, 6, 0.5, 7)
	spec := cube.Spec{Agg: agg.Count, MinSup: minSup}
	built, err := sketch.Build(cubetest.NewEngine(k), rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	job := cubeJob(rel.D(), k, spec, built.Sketch, Options{}, "out/allocs/")
	reduce := job.Reduce
	checked := 0
	job.Reduce = func(ctx *mr.RedCtx, key string, vals [][]byte) {
		if key[0] != prefixGroup || len(vals) >= minSup || checked == 500 || t.Failed() {
			reduce(ctx, key, vals)
			return
		}
		checked++
		if n := testing.AllocsPerRun(1, func() { reduce(ctx, key, vals) }); n != 0 {
			t.Errorf("group %x with %d tuples: %v allocations", key, len(vals), n)
		}
	}
	eng := mr.New(mr.Config{Workers: k, Parallelism: 1}, dfs.New(false))
	if _, err := eng.RunTuples(job, rel.Tuples); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no set(g) below the threshold reached a reducer")
	}
}
