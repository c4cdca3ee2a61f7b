package serve

import (
	"fmt"
	"sort"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// Patch is a batch of group-level edits — upserts and removals keyed by
// encoded group key — produced by one incremental-maintenance round
// (delta.Round.Changes) and applied to a Store with ApplyPatch. Entries are
// grouped by cuboid and may be added in any order, at most one per key:
// ApplyPatch rejects a patch holding two edits of one group.
type Patch struct {
	perMask map[lattice.Mask][]patchEntry
}

// patchEntry is one edit in decoded form.
type patchEntry struct {
	packed []relation.Value
	val    float64
	del    bool
}

// NewPatch returns an empty patch.
func NewPatch() *Patch {
	return &Patch{perMask: make(map[lattice.Mask][]patchEntry)}
}

// Set records that the group with the given encoded key now has value v
// (inserting the group if the store lacks it).
func (p *Patch) Set(key string, v float64) error {
	return p.add(key, v, false)
}

// Delete records that the group with the given encoded key is gone. Deleting
// a group the store does not hold is a no-op at apply time.
func (p *Patch) Delete(key string) error {
	return p.add(key, 0, true)
}

func (p *Patch) add(key string, v float64, del bool) error {
	mask, packed, err := relation.DecodeGroupKey(key)
	if err != nil {
		return err
	}
	m := lattice.Mask(mask)
	p.perMask[m] = append(p.perMask[m], patchEntry{packed: packed, val: v, del: del})
	return nil
}

// ApplyPatch merges a patch into the store, returning a NEW immutable
// snapshot; the receiver is untouched and stays fully servable, also when
// the patch is rejected. Cuboids the patch does not touch are shared between
// the two snapshots (copy-on-write); each touched cuboid's run is rewritten
// by one merge of the old run with the sorted patch entries. A cuboid
// emptied by deletions is dropped; a cuboid the store never held is created.
//
// dict, when non-nil, replaces the store's dictionary in the new snapshot
// (appends can mint codes the old dictionary lacks; the maintainer's
// copy-on-write dictionary keeps the old snapshot's codes valid forever).
func (s *Store) ApplyPatch(p *Patch, dict *relation.Dictionary) (*Store, error) {
	ns := &Store{
		d:      s.d,
		schema: s.schema,
		dict:   s.dict,
		byMask: make(map[lattice.Mask]*cuboid, len(s.byMask)),
	}
	if dict != nil {
		ns.dict = dict
	}
	for mask, c := range s.byMask {
		ns.byMask[mask] = c // shared until the patch says otherwise
	}
	for mask, entries := range p.perMask {
		if mask > lattice.Full(s.d) {
			return nil, fmt.Errorf("serve: patch cuboid %b out of range for %d dimensions", uint32(mask), s.d)
		}
		merged, err := patchCuboid(s.byMask[mask], mask, entries)
		if err != nil {
			return nil, err
		}
		if merged.rows() == 0 {
			delete(ns.byMask, mask)
		} else {
			ns.byMask[mask] = merged
		}
	}
	for _, c := range ns.byMask {
		ns.groups += c.rows()
	}
	return ns, nil
}

// patchCuboid merges one cuboid's sorted run (old may be nil) with its patch
// entries, one cursor on each: the old rows below an entry carry over in
// bulk, an old row equal to it is superseded — a Set replaces it, a Delete
// drops it. The entries are sorted into a copy, so the patch stays reusable.
func patchCuboid(old *cuboid, mask lattice.Mask, entries []patchEntry) (*cuboid, error) {
	sorted := append([]patchEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		return relation.ComparePacked(sorted[i].packed, sorted[j].packed) < 0
	})
	if old == nil {
		old = newCuboid(mask, 0)
	}
	nc := newCuboid(mask, old.rows()+len(sorted))
	oi := 0
	carry := func(to int) {
		nc.packed = append(nc.packed, old.packed[oi*old.stride:to*old.stride]...)
		nc.vals = append(nc.vals, old.vals[oi:to]...)
		oi = to
	}
	for pi, e := range sorted {
		if pi > 0 && relation.ComparePacked(sorted[pi-1].packed, e.packed) == 0 {
			return nil, fmt.Errorf("serve: patch holds two entries for group %v of cuboid %b", e.packed, uint32(mask))
		}
		carry(oi + sort.Search(old.rows()-oi, func(i int) bool {
			return relation.ComparePacked(old.row(oi+i), e.packed) >= 0
		}))
		if oi < old.rows() && relation.ComparePacked(old.row(oi), e.packed) == 0 {
			oi++
		}
		if !e.del {
			nc.push(e.packed, e.val)
		}
	}
	carry(old.rows())
	return nc, nil
}
