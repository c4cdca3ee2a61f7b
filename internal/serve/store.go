package serve

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// Store is a read-optimized, immutable index over one computed cube. Each
// cuboid's groups are held as a sorted run — packed values flattened
// row-major into one array, ordered by relation.ComparePacked — and the run
// is the cuboid's only index: points are one binary search, batched points a
// shared galloping pass, slices a range scan. Nothing of the cube it was
// built from is retained.
//
// A Store is safe for unlimited concurrent readers; it is never mutated
// after Build. Incremental maintenance produces a NEW store from an old one
// via ApplyPatch — untouched cuboids are shared between the two snapshots
// (copy-on-write).
type Store struct {
	d      int
	schema relation.Schema
	dict   *relation.Dictionary
	byMask map[lattice.Mask]*cuboid
	groups int
}

// cuboid is one cuboid's sorted run. Cuboids are immutable and may be shared
// by several Store snapshots.
type cuboid struct {
	mask   lattice.Mask
	stride int              // values per row (the mask's popcount)
	packed []relation.Value // len = stride * rows, sorted by ComparePacked
	vals   []float64
}

// newCuboid returns an empty run with room for rows groups.
func newCuboid(mask lattice.Mask, rows int) *cuboid {
	stride := mask.Level()
	return &cuboid{
		mask:   mask,
		stride: stride,
		packed: make([]relation.Value, 0, rows*stride),
		vals:   make([]float64, 0, rows),
	}
}

// push appends one group; callers add rows in ascending packed order.
func (c *cuboid) push(packed []relation.Value, val float64) {
	c.packed = append(c.packed, packed...)
	c.vals = append(c.vals, val)
}

// rows returns the number of groups in the cuboid.
func (c *cuboid) rows() int { return len(c.vals) }

// row returns row i's packed values (aliasing the run).
func (c *cuboid) row(i int) []relation.Value {
	return c.packed[i*c.stride : (i+1)*c.stride]
}

// Build indexes a computed cube held as a map: the map is laid out as a
// sorted run, the way its CSV writer lays it out, and handed to BuildRun. The
// tests and the benchmark harness come in here; a server's cube never is a
// map.
func Build(rel *relation.Relation, res *cube.Result) (*Store, error) {
	run, err := res.Run()
	if err != nil {
		return nil, err
	}
	return BuildRun(rel, run.Each)
}

// BuildRun indexes for serving the cube that each yields, one call of its
// argument per group with cube.SortedRun.Each's callback and aliasing rules
// — a SortedRun's Each, or a maintainer's Published. The relation supplies
// the schema and the dictionary the HTTP front end translates between strings
// and codes with.
//
// Each cuboid is laid down as its groups arrive. A run yields them in encoded
// key order, which keeps a cuboid's groups together but is ComparePacked order
// only while every value encodes in one byte (a varint's low bits lead): a
// cuboid whose rows did not arrive ascending is sorted afterwards, by a
// permutation over its flat rows, up to GOMAXPROCS cuboids at a time.
func BuildRun(rel *relation.Relation, each func(fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64) bool)) (*Store, error) {
	st := &Store{
		d:      rel.D(),
		schema: rel.Schema,
		dict:   rel.Dict,
		byMask: make(map[lattice.Mask]*cuboid),
	}
	var cur *cuboid
	ascending := false // cur's rows have arrived in ComparePacked order so far
	unsorted := make(map[*cuboid]bool)
	var err error
	each(func(_ []byte, mask lattice.Mask, packed []relation.Value, value float64) bool {
		if cur == nil || cur.mask != mask {
			if mask > lattice.Full(st.d) {
				err = fmt.Errorf("serve: cuboid %b out of range for %d dimensions", uint32(mask), st.d)
				return false
			}
			if cur = st.byMask[mask]; cur == nil {
				cur = newCuboid(mask, 0)
				st.byMask[mask] = cur
			}
			ascending = !unsorted[cur]
		}
		if n := cur.rows(); ascending && n > 0 && relation.ComparePacked(cur.row(n-1), packed) >= 0 {
			ascending, unsorted[cur] = false, true
		}
		cur.push(packed, value)
		st.groups++
		return true
	})
	if err != nil {
		return nil, err
	}

	work := make(chan *cuboid)
	var wg sync.WaitGroup
	for i := min(runtime.GOMAXPROCS(0), len(unsorted)); i > 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				c.sortRows()
			}
		}()
	}
	for c := range unsorted {
		work <- c
	}
	close(work)
	wg.Wait()
	return st, nil
}

// sortRows puts the cuboid's rows in ComparePacked order: an index sort, then
// one gather into arrays of exactly the cuboid's size.
func (c *cuboid) sortRows() {
	perm := make([]int32, c.rows())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		return relation.ComparePacked(c.row(int(a)), c.row(int(b)))
	})
	sorted := newCuboid(c.mask, len(perm))
	for _, i := range perm {
		sorted.push(c.row(int(i)), c.vals[i])
	}
	c.packed, c.vals = sorted.packed, sorted.vals
}

// D returns the cube's dimension count.
func (s *Store) D() int { return s.d }

// Schema returns the served relation's schema.
func (s *Store) Schema() relation.Schema { return s.schema }

// Groups returns the total number of groups across all cuboids.
func (s *Store) Groups() int { return s.groups }

// Cuboids returns the materialized cuboid masks in canonical BFS order,
// with their group counts.
func (s *Store) Cuboids() []CuboidInfo {
	out := make([]CuboidInfo, 0, len(s.byMask))
	for mask, c := range s.byMask {
		out = append(out, CuboidInfo{Mask: mask, Size: c.rows()})
	}
	sort.Slice(out, func(i, j int) bool { return lattice.BFSLess(out[i].Mask, out[j].Mask) })
	return out
}

// CuboidInfo describes one materialized cuboid.
type CuboidInfo struct {
	Mask lattice.Mask
	Size int
}

// DimString renders an encoded dimension value for display, falling back to
// the numeric form when the relation carried no dictionary.
func (s *Store) DimString(col int, v relation.Value) string {
	if s.dict != nil {
		if str, ok := s.dict.Decode(col, v); ok {
			return str
		}
	}
	return relationValueString(v)
}

// DimCode resolves a dimension value string to its code: through the
// dictionary when one exists, else as a literal integer.
func (s *Store) DimCode(col int, str string) (relation.Value, bool) {
	if s.dict != nil {
		if v, ok := s.dict.Code(col, str); ok {
			return v, true
		}
	}
	return parseRelationValue(str)
}

// DimValues returns up to max distinct served values of dimension col (as
// display strings), read from the single-attribute cuboid's sorted run. With
// an iceberg cube this can under-report rare values; it exists to give load
// generators and UIs a realistic key population, not an exact domain.
func (s *Store) DimValues(col, max int) []string {
	c, ok := s.byMask[lattice.Mask(1)<<uint(col)]
	if !ok {
		return nil
	}
	n := c.rows()
	if max > 0 && n > max {
		n = max
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = s.DimString(col, c.row(i)[0])
	}
	return out
}

// Point looks up one group by binary search over its cuboid's sorted run. A
// key of the wrong arity for the cuboid misses.
func (s *Store) Point(mask lattice.Mask, packed []relation.Value) (float64, bool) {
	c, ok := s.byMask[mask]
	if !ok || len(packed) != c.stride {
		return 0, false
	}
	i := sort.Search(c.rows(), func(i int) bool {
		return relation.ComparePacked(c.row(i), packed) >= 0
	})
	if i < c.rows() && relation.ComparePacked(c.row(i), packed) == 0 {
		return c.vals[i], true
	}
	return 0, false
}

// PointBatch answers many point queries against one cuboid in a single
// galloping pass over its sorted run: the requested keys are visited in
// sorted order and each binary search is restricted to the run's remaining
// suffix. Results are returned in the input order. This is the probe the
// request batcher coalesces concurrent same-cuboid queries into.
func (s *Store) PointBatch(mask lattice.Mask, keys [][]relation.Value) []Result {
	out := make([]Result, len(keys))
	c, ok := s.byMask[mask]
	if !ok {
		return out
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return relation.ComparePacked(keys[order[i]], keys[order[j]]) < 0
	})
	lo, n := 0, c.rows()
	for _, qi := range order {
		key := keys[qi]
		i := lo + sort.Search(n-lo, func(i int) bool {
			return relation.ComparePacked(c.row(lo+i), key) >= 0
		})
		if i < n && relation.ComparePacked(c.row(i), key) == 0 {
			out[qi] = Result{Found: true, Value: c.vals[i]}
		}
		lo = i
	}
	return out
}

// Slice returns every group of the cuboid whose packed values start with
// prefix, in sorted order. An empty prefix returns the whole cuboid.
func (s *Store) Slice(mask lattice.Mask, prefix []relation.Value) []Group {
	c, ok := s.byMask[mask]
	if !ok {
		return nil
	}
	p := len(prefix)
	cmp := func(i int) int { return relation.ComparePacked(c.row(i)[:p], prefix) }
	lo := sort.Search(c.rows(), func(i int) bool { return cmp(i) >= 0 })
	hi := lo + sort.Search(c.rows()-lo, func(i int) bool { return cmp(lo+i) > 0 })
	if lo == hi {
		return nil
	}
	out := make([]Group, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, s.group(c, i))
	}
	return out
}

// Rollup returns the chain from the queried group up to the apex, dropping
// the highest grouped attribute at each step (the classic ROLLUP shape over
// ascending attribute order). Groups absent from the cube (e.g. pruned by an
// iceberg threshold) are skipped.
func (s *Store) Rollup(mask lattice.Mask, packed []relation.Value) []Group {
	out := make([]Group, 0, mask.Level()+1)
	for {
		if v, ok := s.Point(mask, packed); ok {
			cp := make([]relation.Value, len(packed))
			copy(cp, packed)
			out = append(out, Group{Mask: mask, Packed: cp, Value: v})
		}
		if mask == 0 {
			return out
		}
		// Drop the highest set bit (the last packed value).
		top := 31 - bits.LeadingZeros32(uint32(mask))
		mask &^= lattice.Mask(1) << uint(top)
		packed = packed[:len(packed)-1]
	}
}

// TopK returns the cuboid's k largest groups by aggregate value, ties broken
// by ascending packed values so the answer is deterministic.
func (s *Store) TopK(mask lattice.Mask, k int) []Group {
	c, ok := s.byMask[mask]
	if !ok || k <= 0 {
		return nil
	}
	order := make([]int, c.rows())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if c.vals[a] != c.vals[b] {
			return c.vals[a] > c.vals[b]
		}
		return a < b // rows are already in ascending packed order
	})
	if k > len(order) {
		k = len(order)
	}
	out := make([]Group, k)
	for i := 0; i < k; i++ {
		out[i] = s.group(c, order[i])
	}
	return out
}

// group materializes row i of a cuboid as a Group (copying the packed
// values, so results never alias the run).
func (s *Store) group(c *cuboid, i int) Group {
	r := c.row(i)
	cp := make([]relation.Value, len(r))
	copy(cp, r)
	return Group{Mask: c.mask, Packed: cp, Value: c.vals[i]}
}

// Execute evaluates one query directly against the index, with no batching
// or caching. It is the evaluation core the Service implementations share.
func (s *Store) Execute(q Query) (Result, error) {
	if err := q.validate(s.d); err != nil {
		return Result{}, err
	}
	switch q.Op {
	case OpPoint:
		v, ok := s.Point(q.Mask, q.Packed)
		return Result{Found: ok, Value: v}, nil
	case OpSlice:
		return Result{Groups: s.Slice(q.Mask, q.Packed)}, nil
	case OpRollup:
		return Result{Groups: s.Rollup(q.Mask, q.Packed)}, nil
	default: // OpTopK; validate rejected everything else
		k := q.K
		if k == 0 {
			k = DefaultTopK
		}
		return Result{Groups: s.TopK(q.Mask, k)}, nil
	}
}

// relationValueString renders an encoded value with no dictionary.
func relationValueString(v relation.Value) string {
	return strconv.FormatInt(int64(v), 10)
}

// parseRelationValue parses a literal integer dimension value (the encoding
// used by relations populated without a dictionary).
func parseRelationValue(s string) (relation.Value, bool) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, false
	}
	return relation.Value(n), true
}
