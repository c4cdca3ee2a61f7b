package buc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

func randTuples(rng *rand.Rand, n, d, card int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		dims := make([]relation.Value, d)
		for j := range dims {
			dims[j] = relation.Value(rng.Intn(card))
		}
		out[i] = relation.Tuple{Dims: dims, Measure: int64(rng.Intn(50))}
	}
	return out
}

// bruteCube computes group -> (count, sum) directly.
func bruteCube(tuples []relation.Tuple, d int) map[string][2]int64 {
	res := make(map[string][2]int64)
	for _, t := range tuples {
		for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
			key := relation.GroupKey(uint32(mask), t.Dims)
			cur := res[key]
			cur[0]++
			cur[1] += t.Measure
			res[key] = cur
		}
	}
	return res
}

func TestComputeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, d, card int }{
		{1, 1, 1}, {50, 2, 3}, {200, 3, 4}, {100, 4, 2}, {300, 4, 50},
	} {
		tuples := randTuples(rng, tc.n, tc.d, tc.card)
		want := bruteCube(tuples, tc.d)

		got := make(map[string]float64)
		work := make([]relation.Tuple, len(tuples))
		copy(work, tuples)
		Compute(work, tc.d, agg.Sum, 1, func(mask lattice.Mask, packed []relation.Value, st agg.State) {
			key := string(relation.EncodeGroupKey(nil, uint32(mask), relation.GroupVals(nil, uint32(mask), packed, tc.d)))
			if _, dup := got[key]; dup {
				t.Fatalf("group %s emitted twice", key)
			}
			got[key] = st.Final()
		})
		if len(got) != len(want) {
			t.Fatalf("n=%d d=%d: %d groups, want %d", tc.n, tc.d, len(got), len(want))
		}
		for key, w := range want {
			if got[key] != float64(w[1]) {
				t.Fatalf("group %q: sum %v want %d", key, got[key], w[1])
			}
		}
	}
}

func TestIcebergThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tuples := randTuples(rng, 400, 3, 3)
	want := bruteCube(tuples, 3)
	const minSup = 25
	got := make(map[string]bool)
	Compute(tuples, 3, agg.Count, minSup, func(mask lattice.Mask, packed []relation.Value, st agg.State) {
		key := string(relation.EncodeGroupKey(nil, uint32(mask), relation.GroupVals(nil, uint32(mask), packed, 3)))
		if int(st.Final()) < minSup {
			t.Errorf("emitted group %q with count %v < minSup", key, st.Final())
		}
		got[key] = true
	})
	for key, w := range want {
		if w[0] >= minSup && !got[key] {
			t.Errorf("missing iceberg group %q (count %d)", key, w[0])
		}
		if w[0] < minSup && got[key] {
			t.Errorf("spurious group %q (count %d)", key, w[0])
		}
	}
}

func TestComputeFromBase(t *testing.T) {
	// All tuples share dims[1]; BUC from base {1} must enumerate exactly
	// the supersets of the base.
	rng := rand.New(rand.NewSource(3))
	tuples := randTuples(rng, 120, 3, 4)
	for i := range tuples {
		tuples[i].Dims[1] = 7
	}
	base := lattice.Mask(0b010)
	want := bruteCube(tuples, 3)
	seen := make(map[string]float64)
	ComputeFrom(tuples, 3, base, agg.Count, 1, nil,
		func(mask lattice.Mask, packed []relation.Value, st agg.State) {
			if base&^mask != 0 {
				t.Fatalf("emitted non-superset %b of base", mask)
			}
			key := string(relation.EncodeGroupKey(nil, uint32(mask), relation.GroupVals(nil, uint32(mask), packed, 3)))
			seen[key] = st.Final()
		})
	for key, w := range want {
		mask, _, _ := relation.DecodeGroupKey(key)
		if base&^lattice.Mask(mask) != 0 {
			continue
		}
		if seen[key] != float64(w[0]) {
			t.Errorf("group %q: %v want %d", key, seen[key], w[0])
		}
	}
	wantCount := 0
	for key := range want {
		mask, _, _ := relation.DecodeGroupKey(key)
		if base&^lattice.Mask(mask) == 0 {
			wantCount++
		}
	}
	if len(seen) != wantCount {
		t.Errorf("emitted %d groups, want %d", len(seen), wantCount)
	}
}

func TestDecisionSkipAndPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tuples := randTuples(rng, 100, 3, 3)

	// Skip the apex only: everything else still emitted.
	count := 0
	ComputeFrom(tuples, 3, 0, agg.Count, 1,
		func(mask lattice.Mask, _ []relation.Value) Decision {
			if mask == 0 {
				return Skip
			}
			return Emit
		},
		func(mask lattice.Mask, _ []relation.Value, _ agg.State) {
			if mask == 0 {
				t.Error("apex emitted despite Skip")
			}
			count++
		})
	if count == 0 {
		t.Fatal("Skip suppressed recursion")
	}

	// Prune at level 1: only the apex survives.
	emitted := 0
	ComputeFrom(tuples, 3, 0, agg.Count, 1,
		func(mask lattice.Mask, _ []relation.Value) Decision {
			if mask.Level() >= 1 {
				return Prune
			}
			return Emit
		},
		func(mask lattice.Mask, _ []relation.Value, _ agg.State) {
			if mask != 0 {
				t.Errorf("pruned node %b emitted", mask)
			}
			emitted++
		})
	if emitted != 1 {
		t.Errorf("want only the apex, got %d emissions", emitted)
	}
}

func TestTouchesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := randTuples(rng, 50, 2, 2)
	touches := Compute(tuples, 2, agg.Count, 1, func(lattice.Mask, []relation.Value, agg.State) {})
	if touches < int64(len(tuples)) {
		t.Errorf("touches %d below input size", touches)
	}
	if got := Compute(nil, 2, agg.Count, 1, func(lattice.Mask, []relation.Value, agg.State) {}); got != 0 {
		t.Errorf("empty input should touch nothing, got %d", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	Compute(nil, 3, agg.Count, 1, func(lattice.Mask, []relation.Value, agg.State) {
		t.Fatal("empty input must emit nothing")
	})
	single := []relation.Tuple{{Dims: []relation.Value{1, 2}, Measure: 9}}
	groups := 0
	Compute(single, 2, agg.Sum, 1, func(_ lattice.Mask, _ []relation.Value, st agg.State) {
		if st.Final() != 9 {
			t.Errorf("sum %v", st.Final())
		}
		groups++
	})
	if groups != 4 {
		t.Errorf("singleton cube must have 4 groups, got %d", groups)
	}
}

func TestQuickSmallCubes(t *testing.T) {
	f := func(seed int64, nSeed, dSeed, cardSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSeed%60) + 1
		d := int(dSeed%4) + 1
		card := int(cardSeed%5) + 1
		tuples := randTuples(rng, n, d, card)
		want := bruteCube(tuples, d)
		got := 0
		ok := true
		Compute(tuples, d, agg.Count, 1, func(mask lattice.Mask, packed []relation.Value, st agg.State) {
			key := string(relation.EncodeGroupKey(nil, uint32(mask), relation.GroupVals(nil, uint32(mask), packed, d)))
			if float64(want[key][0]) != st.Final() {
				ok = false
			}
			got++
		})
		return ok && got == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
