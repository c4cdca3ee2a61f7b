// Package serve is the online serving layer for computed cubes: it lays a
// cube down, group by group as a sorted run or a maintainer yields it, into a
// compact read-optimized index (Store) and answers point / slice / rollup / top-k queries over it, in process through
// the Service interface and over HTTP/JSON through NewHandler.
//
// A computed cube otherwise dies with the process that computed it; serve is
// the consumer side the paper's pipeline presumes. The concurrency design is
// the heart of the package: queries pass through a single-flight LRU result
// cache (identical concurrent queries cost one evaluation) and a
// channel-based batcher that coalesces the concurrent misses targeting the
// same cuboid into one probe of that cuboid's sorted run, so thousands of
// concurrent clients degenerate to a few index probes per batch window.
//
// The Store is an immutable snapshot: queries against it are deterministic,
// which is what makes results cacheable without an invalidation protocol.
// Updating a served cube is a snapshot swap, not a mutation: incremental
// maintenance turns a delta round's changes into a Patch, Store.ApplyPatch
// merges it into a NEW store (sharing untouched cuboids with the old one),
// and Service.Swap publishes the new snapshot — pointer first, then a full
// cache flush. That ordering is the whole read-while-update story: entries
// computed against the old store were necessarily inserted before the flush
// and die in it, entries inserted after the flush were evaluated by batches
// that loaded the store after the pointer moved, and the batcher reads the
// pointer once per batch, so every reader sees exactly one snapshot and no
// cache entry outlives the snapshot it was computed on.
package serve

import (
	"fmt"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// Op enumerates the query kinds the serving layer answers.
type Op uint8

const (
	// OpPoint looks up one c-group's aggregate.
	OpPoint Op = iota
	// OpSlice returns every group of a cuboid matching a packed-value
	// prefix (in ascending attribute order).
	OpSlice
	// OpRollup returns the chain of groups from the queried group up to
	// the apex, dropping the highest grouped attribute at each step.
	OpRollup
	// OpTopK returns a cuboid's k groups with the largest aggregates.
	OpTopK

	numOps = 4
)

// opNames maps Op to its wire name (see OpByName).
var opNames = [numOps]string{"point", "slice", "rollup", "topk"}

// String returns the op's wire name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// OpByName resolves a wire name ("point", "slice", "rollup", "topk").
func OpByName(name string) (Op, error) {
	for i, n := range opNames {
		if n == name {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown op %q (want point, slice, rollup, topk)", name)
}

// Query is one request against a served cube.
type Query struct {
	Op Op
	// Mask is the cuboid: bit i set means dimension i is grouped on.
	Mask lattice.Mask
	// Packed holds the values of the grouped dimensions in ascending
	// attribute order: one per set bit for point and rollup, a prefix
	// (possibly empty) for slice, unused for top-k.
	Packed []relation.Value
	// K is the top-k result size (top-k only; DefaultTopK when 0).
	K int
}

// DefaultTopK is the result size of a top-k query that does not set K.
const DefaultTopK = 10

// Group is one c-group in a query result.
type Group struct {
	Mask   lattice.Mask
	Packed []relation.Value
	Value  float64
}

// Result is a query's answer. Point queries fill Found/Value; slice, rollup
// and top-k fill Groups (sorted by packed values for slice and rollup, by
// descending value — ties by ascending packed values — for top-k).
type Result struct {
	Found  bool
	Value  float64
	Groups []Group
}

// Service answers queries against one served cube snapshot. Implementations
// are safe for concurrent use; Close releases background resources (after
// which Query returns ErrClosed).
type Service interface {
	Query(q Query) (Result, error)
	Close() error
}

// ErrClosed is returned by queries issued after Close.
var ErrClosed = fmt.Errorf("serve: service closed")

// validate checks a query's shape against a d-dimensional store.
func (q Query) validate(d int) error {
	if int(q.Op) >= numOps {
		return fmt.Errorf("serve: invalid op %d", int(q.Op))
	}
	if q.Mask > lattice.Full(d) {
		return fmt.Errorf("serve: cuboid mask %b out of range for %d dimensions", uint32(q.Mask), d)
	}
	want := q.Mask.Level()
	switch q.Op {
	case OpPoint, OpRollup:
		if len(q.Packed) != want {
			return fmt.Errorf("serve: %s query needs %d values for cuboid %b, got %d", q.Op, want, uint32(q.Mask), len(q.Packed))
		}
	case OpSlice:
		if len(q.Packed) > want {
			return fmt.Errorf("serve: slice prefix of %d values exceeds cuboid %b width %d", len(q.Packed), uint32(q.Mask), want)
		}
	case OpTopK:
		if len(q.Packed) != 0 {
			return fmt.Errorf("serve: top-k query takes no values, got %d", len(q.Packed))
		}
		if q.K < 0 {
			return fmt.Errorf("serve: top-k k must be non-negative, got %d", q.K)
		}
	}
	return nil
}
