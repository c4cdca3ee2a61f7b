package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// tupleList is a mutable relation draft: patch tests evolve one through
// appends and deletes and materialize each version as a dictionary-free
// relation, so packed codes (the raw values) are stable across versions.
type tupleList struct {
	d    int
	rows [][]relation.Value
}

func newTupleList(rng *rand.Rand, n, d, card int) *tupleList {
	tl := &tupleList{d: d}
	for i := 0; i < n; i++ {
		row := make([]relation.Value, d)
		for j := range row {
			row[j] = relation.Value(rng.Intn(card))
		}
		tl.rows = append(tl.rows, row)
	}
	return tl
}

func (tl *tupleList) relation() *relation.Relation {
	names := make([]string, tl.d)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	rel := &relation.Relation{Schema: relation.Schema{DimNames: names, MeasureName: "m"}}
	for _, row := range tl.rows {
		rel.Append(row, 1)
	}
	return rel
}

// diffPatch turns the difference between two brute cubes into a Patch: a Set
// for every changed or new group, a Delete for every vanished one, in key
// order.
func diffPatch(t *testing.T, old, new *cube.Result) *Patch {
	t.Helper()
	var keys []string
	for key, v := range new.Groups {
		if ov, ok := old.Groups[key]; !ok || ov != v {
			keys = append(keys, key)
		}
	}
	for key := range old.Groups {
		if _, ok := new.Groups[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	p := NewPatch()
	for _, key := range keys {
		var err error
		if v, ok := new.Groups[key]; ok {
			err = p.Set(key, v)
		} else {
			err = p.Delete(key)
		}
		if err != nil {
			t.Fatalf("Patch: %v", err)
		}
	}
	return p
}

// checkStoreMatches verifies a store serves exactly the groups of a brute
// cube: group count, cuboid inventory, every group of every cuboid through
// Point and through one PointBatch per cuboid, and full-cuboid slices
// (ordering).
func checkStoreMatches(t *testing.T, st *Store, brute *cube.Result) {
	t.Helper()
	if st.Groups() != brute.Len() {
		t.Fatalf("store has %d groups, brute %d", st.Groups(), brute.Len())
	}
	byMask := map[lattice.Mask][]cube.Group{}
	for key, want := range brute.Groups {
		mask, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			t.Fatal(err)
		}
		m := lattice.Mask(mask)
		byMask[m] = append(byMask[m], cube.Group{Mask: m, Packed: packed, Value: want}) // map order: unsorted batch
		if got, ok := st.Point(m, packed); !ok || got != want {
			t.Fatalf("Point(%b, %v) = %v,%v want %v", mask, packed, got, ok, want)
		}
	}
	if len(st.Cuboids()) != len(byMask) {
		t.Fatalf("store holds %d cuboids, brute %d", len(st.Cuboids()), len(byMask))
	}
	for mask, groups := range byMask {
		keys := make([][]relation.Value, len(groups))
		for i, g := range groups {
			keys[i] = g.Packed
		}
		for i, r := range st.PointBatch(mask, keys) {
			if !r.Found || r.Value != groups[i].Value {
				t.Fatalf("PointBatch(%b)[%v] = %+v, want %v", mask, keys[i], r, groups[i].Value)
			}
		}
	}
	for _, ci := range st.Cuboids() {
		want := brute.Cuboid(ci.Mask)
		got := st.Slice(ci.Mask, nil)
		if len(got) != len(want) || ci.Size != len(want) {
			t.Fatalf("cuboid %b: %d/%d rows, brute %d", ci.Mask, len(got), ci.Size, len(want))
		}
		for i := range got {
			if relation.ComparePacked(got[i].Packed, want[i].Packed) != 0 || got[i].Value != want[i].Value {
				t.Fatalf("cuboid %b row %d = %v/%v, want %v/%v",
					ci.Mask, i, got[i].Packed, got[i].Value, want[i].Packed, want[i].Value)
			}
		}
	}
}

// TestApplyPatchMatchesRebuild is the patch path's differential gate: evolve
// a relation through rounds of random appends and deletes, apply the diff of
// each round as a Patch, and require the patched store to serve exactly what
// a store built from scratch over the evolved relation would — every point,
// every cuboid, every ordering.
func TestApplyPatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tl := newTupleList(rng, 300, 3, 4)
	brute := cube.Brute(tl.relation(), agg.Count)
	st, err := Build(tl.relation(), brute)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		// Random churn: delete some rows, append some new ones.
		for i := 0; i < 20 && len(tl.rows) > 1; i++ {
			j := rng.Intn(len(tl.rows))
			tl.rows = append(tl.rows[:j], tl.rows[j+1:]...)
		}
		for i := 0; i < 25; i++ {
			row := make([]relation.Value, tl.d)
			for j := range row {
				row[j] = relation.Value(rng.Intn(5)) // slightly wider domain: new groups appear
			}
			tl.rows = append(tl.rows, row)
		}
		next := cube.Brute(tl.relation(), agg.Count)
		patched, err := st.ApplyPatch(diffPatch(t, brute, next), nil)
		if err != nil {
			t.Fatalf("round %d: ApplyPatch: %v", round, err)
		}
		checkStoreMatches(t, patched, next)
		// The old snapshot still serves the old cube (copy-on-write).
		checkStoreMatches(t, st, brute)
		st, brute = patched, next
	}

	// The run's edges, applied one after the other to the evolved store.
	full := lattice.Full(tl.d)
	one := lattice.Mask(1)
	for _, tc := range []struct {
		name string
		edit func(res *cube.Result)
	}{
		{"create the first row", func(res *cube.Result) {
			res.Add(full, []relation.Value{-1, -1, -1}, 3)
		}},
		{"replace the last row", func(res *cube.Result) {
			rows := res.Cuboid(full)
			last := rows[len(rows)-1]
			res.Add(full, last.Packed, last.Value+5)
		}},
		{"delete every row of a cuboid", func(res *cube.Result) {
			for _, g := range res.Cuboid(one) {
				delete(res.Groups, relation.GroupKeyPacked(uint32(one), g.Packed))
			}
		}},
		{"touch a cuboid the store does not hold", func(res *cube.Result) {
			res.Add(one, []relation.Value{2}, 9)
		}},
	} {
		next := &cube.Result{D: brute.D, Groups: make(map[string]float64, len(brute.Groups))}
		for key, v := range brute.Groups {
			next.Groups[key] = v
		}
		tc.edit(next)
		patched, err := st.ApplyPatch(diffPatch(t, brute, next), nil)
		if err != nil {
			t.Fatalf("%s: ApplyPatch: %v", tc.name, err)
		}
		checkStoreMatches(t, patched, next)
		checkStoreMatches(t, st, brute)
		st, brute = patched, next
	}
}

// TestApplyPatchSharesUntouchedCuboids pins the copy-on-write contract: a
// patch touching one cuboid must alias every other cuboid of the old store
// and replace the touched one.
func TestApplyPatchSharesUntouchedCuboids(t *testing.T) {
	st, brute, rel := buildStore(t, 200, 3, 3)
	full := lattice.Full(rel.D())
	g := brute.Cuboid(full)[0]
	p := NewPatch()
	key := relation.GroupKeyPacked(uint32(full), g.Packed)
	if err := p.Set(key, g.Value+7); err != nil {
		t.Fatal(err)
	}
	ns, err := st.ApplyPatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for mask, c := range st.byMask {
		nc := ns.byMask[mask]
		if mask == full {
			if nc == c {
				t.Fatalf("patched cuboid %b was not replaced", mask)
			}
			continue
		}
		if nc != c {
			t.Fatalf("untouched cuboid %b was rebuilt instead of shared", mask)
		}
	}
	if v, ok := ns.Point(full, g.Packed); !ok || v != g.Value+7 {
		t.Fatalf("patched point = %v,%v want %v", v, ok, g.Value+7)
	}
	if v, ok := st.Point(full, g.Packed); !ok || v != g.Value {
		t.Fatalf("old snapshot mutated: point = %v,%v want %v", v, ok, g.Value)
	}
}

// TestApplyPatchCreatesAndDropsCuboids: setting groups of a mask the store
// never held creates the cuboid; deleting a cuboid's every group drops it.
func TestApplyPatchCreatesAndDropsCuboids(t *testing.T) {
	st, brute, rel := buildStore(t, 100, 2, 3)
	full := lattice.Full(rel.D())

	// Drop: delete every full-cuboid group.
	p := NewPatch()
	for _, g := range brute.Cuboid(full) {
		if err := p.Delete(relation.GroupKeyPacked(uint32(full), g.Packed)); err != nil {
			t.Fatal(err)
		}
	}
	ns, err := st.ApplyPatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ns.byMask[full]; ok {
		t.Fatal("emptied cuboid was not dropped")
	}
	if want := st.Groups() - len(brute.Cuboid(full)); ns.Groups() != want {
		t.Fatalf("groups = %d, want %d", ns.Groups(), want)
	}

	// Create: patch the full cuboid back into the dropped store.
	p2 := NewPatch()
	for _, g := range brute.Cuboid(full) {
		if err := p2.Set(relation.GroupKeyPacked(uint32(full), g.Packed), g.Value); err != nil {
			t.Fatal(err)
		}
	}
	ns2, err := ns.ApplyPatch(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkStoreMatches(t, ns2, brute)

	// Deleting an absent group is a no-op; a patch cuboid beyond the
	// store's dimensionality is an error.
	p3 := NewPatch()
	if err := p3.Delete(relation.GroupKeyPacked(uint32(full), []relation.Value{99, 99})); err != nil {
		t.Fatal(err)
	}
	ns3, err := ns2.ApplyPatch(p3, nil)
	if err != nil || ns3.Groups() != ns2.Groups() {
		t.Fatalf("no-op delete: %v, groups %d want %d", err, ns3.Groups(), ns2.Groups())
	}
	bad := NewPatch()
	overMask := uint32(lattice.Full(rel.D())) + 1 // one bit beyond the store's dimensions
	if err := bad.Set(relation.GroupKeyPacked(overMask, []relation.Value{1}), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ns2.ApplyPatch(bad, nil); err == nil {
		t.Fatal("out-of-range patch cuboid accepted")
	}
}

// TestPatchRejectsUnorderedEntries: a patch whose entries of one cuboid are
// not strictly ascending — two edits of one group among them, whatever the
// pair — is an error at apply time, and leaves the receiver store serving
// exactly what it served.
func TestPatchRejectsUnorderedEntries(t *testing.T) {
	st, brute, rel := buildStore(t, 100, 2, 3)
	full := lattice.Full(rel.D())
	groups := brute.Cuboid(full)
	k0 := relation.GroupKeyPacked(uint32(full), groups[0].Packed)
	k1 := relation.GroupKeyPacked(uint32(full), groups[1].Packed)
	run, total := st.byMask[full], st.Groups()

	for name, edits := range map[string]func(p *Patch) error{
		"set after set":        func(p *Patch) error { return errors.Join(p.Set(k0, 111), p.Set(k1, 333), p.Set(k0, 222)) },
		"delete after set":     func(p *Patch) error { return errors.Join(p.Set(k0, 111), p.Set(k1, 333), p.Delete(k0)) },
		"one key twice in row": func(p *Patch) error { return errors.Join(p.Set(k0, 111), p.Delete(k0)) },
		"descending":           func(p *Patch) error { return errors.Join(p.Set(k1, 333), p.Set(k0, 111)) },
	} {
		p := NewPatch()
		if err := edits(p); err != nil {
			t.Fatal(err)
		}
		if ns, err := st.ApplyPatch(p, nil); err == nil {
			t.Fatalf("%s: unordered patch accepted (store of %d groups)", name, ns.Groups())
		}
		if st.byMask[full] != run || st.Groups() != total {
			t.Fatalf("%s: rejected patch touched the receiver", name)
		}
		checkStoreMatches(t, st, brute)
	}
	// Corrupt keys are rejected at Patch build time.
	if err := NewPatch().Set("\xff\xff\xff\xff\xff\xff", 1); err == nil {
		t.Fatal("corrupt patch key accepted")
	}
}
