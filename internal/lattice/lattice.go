// Package lattice implements the cube lattice and tuple lattice of
// Milo & Altshuler (SIGMOD'16, §2.2) as bitmask arithmetic.
//
// A cuboid over d dimensions is a Mask: bit i set means dimension attribute
// Ai participates in the group-by. The cube lattice orders cuboids by the
// descendant relation (C' is a descendant of C when C' drops one attribute
// of C); the tuple lattice of a tuple t has the same shape, with each node
// being the c-group of t's projection on the node's mask.
//
// SP-Cube traverses the tuple lattice bottom-up in BFS order starting from
// the all-stars node (empty mask). The canonical BFS order used everywhere
// in this codebase is: by ascending popcount (lattice level), ties broken by
// ascending numeric mask value. This matches the paper's running example,
// which visits (*,*,*), then (name,*,*), (*,city,*), (*,*,year), and so on.
package lattice

import (
	"math/bits"
	"sort"
)

// Mask identifies a cuboid: bit i set means dimension i is grouped on.
type Mask uint32

// MaxDims is the largest supported number of cube dimensions. The cube has
// 2^d cuboids, so this is a safety bound, not a practical target.
const MaxDims = 20

// Has reports whether dimension i participates in the cuboid.
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Level returns the popcount of the mask, i.e. the lattice level.
func (m Mask) Level() int { return bits.OnesCount32(uint32(m)) }

// Full returns the mask of the top cuboid (all d dimensions).
func Full(d int) Mask { return Mask(1<<uint(d)) - 1 }

// IsSubset reports whether m's dimensions are a subset of o's, i.e. whether
// the c-groups of cuboid o are (weak) ancestors of those of cuboid m.
func (m Mask) IsSubset(o Mask) bool { return m&^o == 0 }

// BFSLess reports whether a precedes b in the canonical bottom-up BFS order.
func BFSLess(a, b Mask) bool {
	la, lb := a.Level(), b.Level()
	if la != lb {
		return la < lb
	}
	return a < b
}

// BFSOrder returns all 2^d masks in canonical BFS order.
// The result is freshly allocated; callers may retain it.
func BFSOrder(d int) []Mask {
	if d < 0 || d > MaxDims {
		panic("lattice: dimension count out of range")
	}
	masks := make([]Mask, 1<<uint(d))
	for i := range masks {
		masks[i] = Mask(i)
	}
	sort.Slice(masks, func(i, j int) bool { return BFSLess(masks[i], masks[j]) })
	return masks
}

// Descendants calls fn for every descendant of m: each mask obtained by
// dropping exactly one dimension of m.
func Descendants(m Mask, fn func(Mask)) {
	for x := uint32(m); x != 0; x &= x - 1 {
		low := x & -x
		fn(m &^ Mask(low))
	}
}

// Ancestors calls fn for every ancestor of m within d dimensions: each mask
// obtained by adding exactly one dimension not in m.
func Ancestors(m Mask, d int, fn func(Mask)) {
	free := uint32(Full(d) &^ m)
	for x := free; x != 0; x &= x - 1 {
		low := x & -x
		fn(m | Mask(low))
	}
}

// Supersets calls fn for every strict superset of m within d dimensions,
// i.e. the transitive ancestors of m in the lattice.
func Supersets(m Mask, d int, fn func(Mask)) {
	full := Full(d)
	free := full &^ m
	// Standard subset-enumeration trick over the free bits.
	for s := free; s != 0; s = (s - 1) & free {
		fn(m | s)
	}
}

// SupersetsIncl calls fn for m and every strict superset of m within d
// dimensions.
func SupersetsIncl(m Mask, d int, fn func(Mask)) {
	fn(m)
	Supersets(m, d, fn)
}

// Subsets calls fn for every strict subset of m (the transitive descendants
// of m in the lattice).
func Subsets(m Mask, fn func(Mask)) {
	if m == 0 {
		return
	}
	for s := (m - 1) & m; ; s = (s - 1) & m {
		fn(s)
		if s == 0 {
			return
		}
	}
}

// SubsetsBFS returns all subsets of m (including m itself and the empty
// mask) sorted in canonical BFS order. Used by the SP-Cube reducer's
// ownership rule, which needs the BFS-minimal non-skewed descendant group.
func SubsetsBFS(m Mask) []Mask {
	out := make([]Mask, 0, 1<<uint(m.Level()))
	s := m
	for {
		out = append(out, s)
		if s == 0 {
			break
		}
		s = (s - 1) & m
	}
	sort.Slice(out, func(i, j int) bool { return BFSLess(out[i], out[j]) })
	return out
}

// Marks is a reusable bitset over the 2^d lattice nodes of a single tuple's
// lattice, used by the SP-Cube mapper to mark processed nodes.
type Marks struct {
	words []uint64
	d     int
	// supers[m], present when the whole lattice fits one word (d ≤ 6), is
	// the bitset of m and all its supersets.
	supers []uint64
}

// NewMarks creates a mark set for a d-dimensional lattice.
func NewMarks(d int) *Marks {
	mk := &Marks{words: make([]uint64, (1<<uint(d)+63)/64), d: d}
	if d <= 6 {
		mk.supers = make([]uint64, 1<<uint(d))
		for m := range mk.supers {
			SupersetsIncl(Mask(m), d, func(s Mask) { mk.supers[m] |= 1 << s })
		}
	}
	return mk
}

// Reset clears all marks.
func (mk *Marks) Reset() {
	for i := range mk.words {
		mk.words[i] = 0
	}
}

// Marked reports whether node m is marked.
func (mk *Marks) Marked(m Mask) bool {
	return mk.words[m>>6]&(1<<(uint(m)&63)) != 0
}

// Mark marks node m.
func (mk *Marks) Mark(m Mask) {
	mk.words[m>>6] |= 1 << (uint(m) & 63)
}

// MarkSupersetsIncl marks m and all its supersets (the node itself and its
// transitive ancestors), as the SP-Cube mapper does after sending a tuple to
// the reducer owning a non-skewed c-group (Algorithm 3, line 12). The mapper
// calls it once per emitted group, so it ORs one precomputed word when it
// can and otherwise enumerates the supersets in place rather than through
// SupersetsIncl's callback.
func (mk *Marks) MarkSupersetsIncl(m Mask) {
	if mk.supers != nil {
		mk.words[0] |= mk.supers[m]
		return
	}
	free := Full(mk.d) &^ m
	for s := free; ; s = (s - 1) & free {
		mk.Mark(m | s)
		if s == 0 {
			return
		}
	}
}
