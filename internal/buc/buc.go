// Package buc implements the classic Bottom-Up Cube algorithm of Beyer &
// Ramakrishnan (SIGMOD'99), the sequential cube algorithm the paper uses as
// a building block: it computes the cube of the sample inside the SP-Sketch
// builder, and each SP-Cube reducer runs it locally over the tuple sets of
// its non-skewed c-groups (Algorithm 3, line 30).
//
// BUC recursively partitions the input: at each lattice node it aggregates
// the current partition, then for every remaining dimension (in ascending
// attribute order) sorts the partition on that dimension and recurses into
// each value run. The sort is not stable: every aggregate's Add is exact and
// order-free, so the order of a run's tuples changes no state. Every cuboid is thus reached exactly once, and iceberg
// thresholds (minSup) prune partitions that are too small — which is also
// how the sketch builder detects skewed groups efficiently.
package buc

import (
	"cmp"
	"slices"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// Decision controls how ComputeFrom treats a lattice node.
type Decision int

const (
	// Emit outputs the node's aggregate and recurses into its ancestors.
	Emit Decision = iota
	// Skip suppresses the node's output but still recurses.
	Skip
	// Prune suppresses the node's output and the entire branch above it.
	// SP-Cube reducers prune nodes owned by a different c-group: ownership
	// failure propagates to all supersets (see DESIGN.md §6), so pruning is
	// safe there.
	Prune
)

// Emitted is the callback invoked for every produced c-group. The packed
// slice holds the values of the mask's dimensions in ascending attribute
// order and is only valid for the duration of the call.
type Emitted func(mask lattice.Mask, packed []relation.Value, state agg.State)

// Compute runs BUC over tuples with d dimensions, emitting every c-group
// whose tuple set has at least minSup tuples (minSup <= 1 means the full
// cube). The tuples slice is reordered in place. It returns the number of
// tuple touches performed, a machine-independent work measure used for CPU
// cost accounting.
func Compute(tuples []relation.Tuple, d int, f agg.Func, minSup int, emit Emitted) int64 {
	return ComputeFrom(tuples, d, 0, f, minSup, nil, emit)
}

// ComputeFrom runs BUC over the supersets of the base mask only: the tuples
// must all agree on the base mask's dimensions (as the tuple set of a
// c-group does), and recursion explores added dimensions outside base. The
// decide callback, when non-nil, is consulted at every node with the node's
// mask and a representative full-width dims slice; it may suppress output or
// prune whole branches. The tuples slice is reordered in place. The return
// value counts tuple touches (a work measure for CPU cost accounting).
func ComputeFrom(
	tuples []relation.Tuple,
	d int,
	base lattice.Mask,
	f agg.Func,
	minSup int,
	decide func(mask lattice.Mask, dims []relation.Value) Decision,
	emit Emitted,
) int64 {
	if minSup < 1 {
		minSup = 1
	}
	if len(tuples) < minSup {
		return 0
	}
	c := &computation{
		tuples: tuples,
		d:      d,
		f:      f,
		minSup: minSup,
		decide: decide,
		emit:   emit,
		packed: make([]relation.Value, 0, d),
	}
	c.run(0, len(tuples), base, 0)
	return c.touches
}

type computation struct {
	tuples  []relation.Tuple
	d       int
	f       agg.Func
	minSup  int
	decide  func(lattice.Mask, []relation.Value) Decision
	emit    Emitted
	packed  []relation.Value
	touches int64
}

// run processes the partition tuples[lo:hi], whose rows all share the values
// of the dimensions in mask; nextFree is the lowest attribute index that may
// still be added (ascending-order recursion visits each superset once).
func (c *computation) run(lo, hi int, mask lattice.Mask, nextFree int) {
	c.touches += int64(hi - lo)
	rep := c.tuples[lo].Dims
	dec := Emit
	if c.decide != nil {
		dec = c.decide(mask, rep)
	}
	if dec == Prune {
		return
	}
	if dec == Emit {
		st := c.f.NewState()
		for i := lo; i < hi; i++ {
			st.Add(c.tuples[i].Measure)
		}
		c.packed = relation.ProjectInto(c.packed, rep, uint32(mask))
		c.emit(mask, c.packed, st)
	}
	for j := nextFree; j < c.d; j++ {
		if mask.Has(j) {
			continue
		}
		if hi-lo > 1 {
			slices.SortFunc(c.tuples[lo:hi], func(a, b relation.Tuple) int { return cmp.Compare(a.Dims[j], b.Dims[j]) })
		}
		runStart := lo
		for i := lo + 1; i <= hi; i++ {
			if i == hi || c.tuples[i].Dims[j] != c.tuples[runStart].Dims[j] {
				if i-runStart >= c.minSup {
					c.run(runStart, i, mask|1<<uint(j), j+1)
				}
				runStart = i
			}
		}
	}
}
