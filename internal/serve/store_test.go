package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// buildStore computes a cube with the naive algorithm and indexes it,
// returning the store plus the brute-force ground truth.
func buildStore(t *testing.T, n, d, card int) (*Store, *cube.Result, *relation.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rel := cubetest.RandomRelation(rng, n, d, card)
	res, _, err := cubetest.RunAndCollect(cubetest.NewEngine(4), naive.Compute, rel, cube.Spec{})
	if err != nil {
		t.Fatalf("computing cube: %v", err)
	}
	st, err := Build(rel, res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return st, cube.Brute(rel, agg.Count), rel
}

// TestStorePointMatchesBrute: the sorted run is the only index, so Point,
// PointBatch and brute force must agree on every group of every cuboid — of
// a built store and of a patched one — and on every kind of miss a binary
// search can get wrong.
func TestStorePointMatchesBrute(t *testing.T) {
	st, brute, rel := buildStore(t, 500, 3, 4)
	d := rel.D()
	full, one := lattice.Full(d), lattice.Mask(1)
	checkStoreMatches(t, st, brute)

	// Patch the first, a middle and the last row out of the full cuboid and
	// every row out of cuboid 1: the keys that are gone are the misses below
	// the first row, between two rows, above the last and in an absent cuboid.
	rows := brute.Cuboid(full)
	gone := append([]cube.Group{rows[0], rows[len(rows)/2], rows[len(rows)-1]}, brute.Cuboid(one)...)
	p := NewPatch()
	for _, g := range gone {
		key := relation.GroupKeyPacked(uint32(g.Mask), g.Packed)
		if err := p.Delete(key); err != nil {
			t.Fatal(err)
		}
		delete(brute.Groups, key)
	}
	patched, err := st.ApplyPatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkStoreMatches(t, patched, brute)

	misses := []struct {
		name   string
		st     *Store
		mask   lattice.Mask
		packed []relation.Value
	}{
		{"below the first row", patched, full, rows[0].Packed},
		{"between two rows", patched, full, rows[len(rows)/2].Packed},
		{"above the last row", patched, full, rows[len(rows)-1].Packed},
		{"below every value", st, full, []relation.Value{-1, -1, -1}},
		{"above every value", st, full, []relation.Value{9999, 9999, 9999}},
		{"last row, longer tail", st, full, []relation.Value{rows[len(rows)-1].Packed[0], rows[len(rows)-1].Packed[1], 9999}},
		{"absent cuboid", patched, one, brute.Cuboid(full)[0].Packed[:1]},
	}
	for _, m := range misses {
		if v, ok := m.st.Point(m.mask, m.packed); ok {
			t.Fatalf("%s: Point(%b, %v) found %v", m.name, m.mask, m.packed, v)
		}
		if r := m.st.PointBatch(m.mask, [][]relation.Value{m.packed})[0]; r.Found {
			t.Fatalf("%s: PointBatch(%b, %v) found %v", m.name, m.mask, m.packed, r.Value)
		}
		if r, err := m.st.Execute(Query{Op: OpPoint, Mask: m.mask, Packed: m.packed}); err != nil || r.Found {
			t.Fatalf("%s: Execute = %+v, %v", m.name, r, err)
		}
	}
	// Right cuboid, wrong arity: validate rejects the query, and a direct
	// Point misses instead of reading past the key.
	for _, packed := range [][]relation.Value{rows[0].Packed[:2], append(rows[0].Packed[:3:3], 0)} {
		if _, err := st.Execute(Query{Op: OpPoint, Mask: full, Packed: packed}); err == nil {
			t.Fatalf("Execute accepted %d values for cuboid %b", len(packed), full)
		}
		if _, ok := st.Point(full, packed); ok {
			t.Fatalf("Point(%b, %v) found a group", full, packed)
		}
	}
}

func TestStorePointBatch(t *testing.T) {
	st, brute, rel := buildStore(t, 300, 3, 4)
	mask := lattice.Full(rel.D())
	var keys [][]relation.Value
	var want []float64
	var found []bool
	for _, g := range brute.Cuboid(mask) {
		keys = append(keys, g.Packed)
		want = append(want, g.Value)
		found = append(found, true)
	}
	// Interleave misses and duplicates in arbitrary positions.
	keys = append(keys, []relation.Value{999, 999, 999}, keys[0])
	want = append(want, 0, want[0])
	found = append(found, false, true)
	got := st.PointBatch(mask, keys)
	for i := range keys {
		if got[i].Found != found[i] || (found[i] && got[i].Value != want[i]) {
			t.Fatalf("PointBatch[%d] = %+v, want found=%v value=%v", i, got[i], found[i], want[i])
		}
	}
	// Unknown cuboid: all misses, no panic.
	for _, r := range NewStoreForTest(t).PointBatch(lattice.Mask(1), [][]relation.Value{{1}}) {
		if r.Found {
			t.Fatal("found group in empty store")
		}
	}
}

// NewStoreForTest builds an empty-but-valid store.
func NewStoreForTest(t *testing.T) *Store {
	t.Helper()
	rel := relation.New([]string{"a"}, "m")
	rel.AppendStrings([]string{"x"}, 1)
	st, err := Build(rel, cube.NewResult(1))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreSliceMatchesBrute(t *testing.T) {
	st, brute, rel := buildStore(t, 400, 3, 3)
	d := rel.D()
	for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
		all := brute.Cuboid(mask)
		// Every prefix length, every value prefix occurring in the data.
		for p := 0; p <= mask.Level(); p++ {
			seen := map[string][]cube.Group{}
			var order []string
			for _, g := range all {
				k := fmt.Sprint(g.Packed[:p])
				if _, ok := seen[k]; !ok {
					order = append(order, k)
				}
				seen[k] = append(seen[k], g)
			}
			for _, k := range order {
				want := seen[k]
				got := st.Slice(mask, want[0].Packed[:p])
				if len(got) != len(want) {
					t.Fatalf("Slice(%b, %v): %d groups, want %d", mask, want[0].Packed[:p], len(got), len(want))
				}
				for i := range got {
					if relation.ComparePacked(got[i].Packed, want[i].Packed) != 0 || got[i].Value != want[i].Value {
						t.Fatalf("Slice(%b)[%d] = %v/%v, want %v/%v",
							mask, i, got[i].Packed, got[i].Value, want[i].Packed, want[i].Value)
					}
				}
			}
		}
	}
	// A prefix over values never seen returns nothing.
	if got := st.Slice(lattice.Full(d), []relation.Value{1234}); got != nil {
		t.Fatalf("impossible prefix returned %d groups", len(got))
	}
}

func TestStoreRollup(t *testing.T) {
	st, brute, rel := buildStore(t, 200, 3, 3)
	d := rel.D()
	full := lattice.Full(d)
	for _, g := range brute.Cuboid(full) {
		chain := st.Rollup(full, g.Packed)
		if len(chain) != d+1 {
			t.Fatalf("rollup of %v: %d steps, want %d", g.Packed, len(chain), d+1)
		}
		mask, packed := full, g.Packed
		for i, step := range chain {
			if step.Mask != mask {
				t.Fatalf("rollup step %d mask %b, want %b", i, step.Mask, mask)
			}
			want, ok := brute.Lookup(mask, relation.GroupVals(nil, uint32(mask), packed, d))
			if !ok || step.Value != want {
				t.Fatalf("rollup step %d = %v, want %v (ok=%v)", i, step.Value, want, ok)
			}
			if mask != 0 {
				packed = packed[:len(packed)-1]
				mask &^= lattice.Mask(1) << uint(mask.Level()+countTrailing(mask)-1)
			}
		}
	}
}

// countTrailing is a helper to recompute the dropped top bit; kept trivial
// to stay independent of the implementation under test.
func countTrailing(m lattice.Mask) int {
	top := -1
	for i := 0; i < 32; i++ {
		if m.Has(i) {
			top = i
		}
	}
	// Return offset such that mask.Level()+offset-1 == top.
	return top - m.Level() + 1
}

func TestStoreTopK(t *testing.T) {
	st, brute, rel := buildStore(t, 400, 3, 3)
	d := rel.D()
	for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
		want := brute.Cuboid(mask) // ascending packed order
		sort.SliceStable(want, func(i, j int) bool { return want[i].Value > want[j].Value })
		for _, k := range []int{1, 3, len(want), len(want) + 5} {
			got := st.TopK(mask, k)
			n := k
			if n > len(want) {
				n = len(want)
			}
			if len(got) != n {
				t.Fatalf("TopK(%b, %d): %d groups, want %d", mask, k, len(got), n)
			}
			for i := range got {
				if got[i].Value != want[i].Value {
					t.Fatalf("TopK(%b, %d)[%d] = %v, want %v", mask, k, i, got[i].Value, want[i].Value)
				}
			}
		}
	}
	if got := st.TopK(lattice.Mask(1), 0); got != nil {
		t.Fatal("TopK with k=0 returned groups")
	}
}

func TestStoreExecuteValidates(t *testing.T) {
	st, _, rel := buildStore(t, 50, 2, 3)
	d := rel.D()
	cases := []Query{
		{Op: Op(99)},
		{Op: OpPoint, Mask: lattice.Full(d) + 1},
		{Op: OpPoint, Mask: lattice.Full(d), Packed: []relation.Value{1}},
		{Op: OpRollup, Mask: lattice.Full(d), Packed: []relation.Value{1, 2, 3}},
		{Op: OpSlice, Mask: lattice.Mask(1), Packed: []relation.Value{1, 2}},
		{Op: OpTopK, Mask: lattice.Mask(1), Packed: []relation.Value{1}},
		{Op: OpTopK, Mask: lattice.Mask(1), K: -2},
	}
	for _, q := range cases {
		if _, err := st.Execute(q); err == nil {
			t.Fatalf("Execute(%+v) did not fail", q)
		}
	}
	// Default top-k size applies.
	res, err := st.Execute(Query{Op: OpTopK, Mask: lattice.Full(d)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 || len(res.Groups) > DefaultTopK {
		t.Fatalf("default top-k returned %d groups", len(res.Groups))
	}
}

func TestStoreDimValuesAndCuboids(t *testing.T) {
	st, brute, rel := buildStore(t, 300, 3, 4)
	d := rel.D()
	infos := st.Cuboids()
	if len(infos) != 1<<d {
		t.Fatalf("%d cuboids, want %d", len(infos), 1<<d)
	}
	for i := 1; i < len(infos); i++ {
		if !lattice.BFSLess(infos[i-1].Mask, infos[i].Mask) {
			t.Fatal("cuboids not in BFS order")
		}
	}
	for _, ci := range infos {
		if want := len(brute.Cuboid(ci.Mask)); ci.Size != want {
			t.Fatalf("cuboid %b size %d, want %d", ci.Mask, ci.Size, want)
		}
	}
	for i := 0; i < d; i++ {
		vals := st.DimValues(i, 0)
		if want := len(brute.Cuboid(lattice.Mask(1) << uint(i))); len(vals) != want {
			t.Fatalf("dim %d: %d values, want %d", i, len(vals), want)
		}
		if capped := st.DimValues(i, 2); len(capped) != 2 {
			t.Fatalf("dim %d: cap ignored (%d values)", i, len(capped))
		}
	}
}

func TestBuildRejectsCorruptKeys(t *testing.T) {
	rel := relation.New([]string{"a"}, "m")
	rel.AppendStrings([]string{"x"}, 1)
	res := cube.NewResult(1)
	res.Groups["\xff\xff\xff\xff\xff\xff"] = 1 // truncated uvarint mask
	if _, err := Build(rel, res); err == nil {
		t.Fatal("Build accepted a corrupt group key")
	}
}
