package spcube

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// runWithSketch executes only round 2 against an injected sketch and
// collects the result.
func runWithSketch(t *testing.T, rel *relation.Relation, sk *sketch.Sketch, k int) *cube.Result {
	t.Helper()
	eng := cubetest.NewEngine(k)
	res, err := runCubeRound(eng, rel, cube.Spec{Agg: agg.Count}, sk, Options{}, "out/injected/")
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	out, err := cube.CollectDFS(eng, "out/injected/", rel.D(), cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorrectUnderArbitrarySketch is the key robustness property of the
// algorithm: the SP-Sketch only steers performance, never correctness. The
// sampling-based sketch can miss skewed groups and can mark borderline
// groups as skewed; here we go much further and inject sketches with
// completely arbitrary skew decisions and partition elements — the computed
// cube must still equal the brute-force reference, because the mapper's
// marking and the reducer's ownership rule apply the same (arbitrary)
// skew predicate consistently.
func TestCorrectUnderArbitrarySketch(t *testing.T) {
	check := func(seed int64, skewSeed uint32, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(k8%6) + 2
		rel := cubetest.RandomRelation(rng, 120+rng.Intn(200), 3, 1+rng.Intn(6))

		// Start from the exact sketch, then corrupt it: flip random
		// groups into the skew set and drop others by rebuilding with a
		// random subset.
		exact := sketch.BuildExact(rel, k, rel.N()/k)
		sk := sketch.New(3, k)
		srng := rand.New(rand.NewSource(int64(skewSeed)))
		for mask := lattice.Mask(0); mask <= lattice.Full(3); mask++ {
			// Randomly keep some true skews.
			for _, g := range exact.SkewedGroups(mask) {
				if srng.Intn(2) == 0 {
					sk.AddSkew(mask, g)
				}
			}
			// Inject false skews from random tuples.
			for i := 0; i < srng.Intn(4); i++ {
				tu := rel.Tuples[srng.Intn(rel.N())]
				sk.AddSkew(mask, relation.Project(tu.Dims, uint32(mask)))
			}
			// Partition elements from random tuples (sorted), sometimes
			// none at all (everything lands on one reducer).
			if mask != 0 && srng.Intn(4) > 0 {
				var elems [][]relation.Value
				for i := 0; i < srng.Intn(k); i++ {
					tu := rel.Tuples[srng.Intn(rel.N())]
					elems = append(elems, relation.Project(tu.Dims, uint32(mask)))
				}
				sortPacked(elems)
				sk.SetPartitionElements(mask, dedupPacked(elems))
			}
		}

		got := runWithSketch(t, rel, sk, k)
		want := cube.Brute(rel, agg.Count)
		ok, diff := want.Equal(got)
		if !ok {
			t.Logf("seed=%d skewSeed=%d k=%d: %s", seed, skewSeed, k, diff)
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func sortPacked(elems [][]relation.Value) {
	for i := 1; i < len(elems); i++ {
		for j := i; j > 0 && relation.ComparePacked(elems[j], elems[j-1]) < 0; j-- {
			elems[j], elems[j-1] = elems[j-1], elems[j]
		}
	}
}

func dedupPacked(elems [][]relation.Value) [][]relation.Value {
	out := elems[:0]
	for i, e := range elems {
		if i == 0 || relation.ComparePacked(e, out[len(out)-1]) != 0 {
			out = append(out, e)
		}
	}
	return out
}

// TestEverySketchGroupProducedOnce strengthens the disjointness test: with
// an arbitrary injected sketch, no group may be emitted twice across the
// skew reducer and the range reducers.
func TestEverySketchGroupProducedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rel := cubetest.SkewedRelation(rng, 600, 3, 0.5, 3)
	k := 5
	sk := sketch.BuildExact(rel, k, 40) // low m: many skews
	eng := cubetest.NewEngine(k)
	if _, err := runCubeRound(eng, rel, cube.Spec{Agg: agg.Count}, sk, Options{}, "out/once/"); err != nil {
		t.Fatal(err)
	}
	out, err := cube.CollectDFS(eng, "out/once/", rel.D(), cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	if recs := eng.FS.TotalRecords("out/once/"); recs != int64(out.Len()) {
		t.Errorf("emitted %d records for %d distinct groups", recs, out.Len())
	}
	want := cube.Brute(rel, agg.Count)
	if ok, diff := want.Equal(out); !ok {
		t.Error(diff)
	}
}

// TestEdgeCases exercises degenerate configurations.
func TestEdgeCases(t *testing.T) {
	// Single tuple, single dimension.
	one := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a"}, MeasureName: "m"}}
	one.Append([]relation.Value{7}, 3)
	if err := cubetest.CheckAgainstBrute(Compute, one, agg.Sum, 2); err != nil {
		t.Errorf("single tuple: %v", err)
	}

	// More workers than tuples.
	rng := rand.New(rand.NewSource(9))
	tiny := cubetest.RandomRelation(rng, 5, 2, 2)
	if err := cubetest.CheckAgainstBrute(Compute, tiny, agg.Count, 8); err != nil {
		t.Errorf("k>n: %v", err)
	}

	// All tuples identical: everything is one giant skewed family.
	same := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b"}, MeasureName: "m"}}
	for i := 0; i < 300; i++ {
		same.Append([]relation.Value{1, 2}, 1)
	}
	if err := cubetest.CheckAgainstBrute(Compute, same, agg.Count, 4); err != nil {
		t.Errorf("identical tuples: %v", err)
	}

	// Negative dimension values (raw integer data).
	neg := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b"}, MeasureName: "m"}}
	negRng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		neg.Append([]relation.Value{int32(negRng.Intn(7) - 3), int32(negRng.Intn(7) - 3)}, int64(negRng.Intn(10)-5))
	}
	if err := cubetest.CheckAgainstBrute(Compute, neg, agg.Sum, 3); err != nil {
		t.Errorf("negative values: %v", err)
	}
}

// TestHighDimensional checks a wider lattice (2^8 cuboids).
func TestHighDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := cubetest.RandomRelation(rng, 200, 8, 3)
	if err := cubetest.CheckAgainstBrute(Compute, rel, agg.Count, 4); err != nil {
		t.Error(err)
	}
}
