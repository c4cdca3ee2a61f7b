// Package cube defines the cube-computation problem the algorithms solve:
// the specification (which aggregate, iceberg threshold), the result
// contract shared by all algorithms, the two readings of a job's output
// (SortedRun, an index over the reducers' own bytes, and Result, a map), and
// a brute-force reference implementation used by the test suite as ground
// truth.
package cube

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// Spec describes a cube computation over a relation.
type Spec struct {
	// Agg is the aggregate function; the paper's experiments use count.
	Agg agg.Func
	// MinSup, when above 1, computes an iceberg cube: only c-groups with
	// at least MinSup contributing tuples are materialized (Beyer &
	// Ramakrishnan; the partial-materialization line of work the paper
	// cites as [22]).
	MinSup int
}

// Effective returns the aggregate function the algorithms should run with
// and the minimum support: iceberg cubes need cardinality tracking, so the
// function is wrapped with agg.WithCount when MinSup is above 1.
func (s Spec) Effective() (agg.Func, int) {
	f := s.Agg
	if f == nil {
		f = agg.Count
	}
	if s.MinSup > 1 {
		return agg.WithCount(f), s.MinSup
	}
	return f, 1
}

// keep reports whether a final state passes the iceberg threshold.
func keep(st agg.State, minSup int) bool {
	if minSup <= 1 {
		return true
	}
	c, ok := agg.Cardinality(st)
	return ok && c >= int64(minSup)
}

// Emit writes the group of a final state as one output record of a job run
// under s, unless the group is below s's iceberg threshold: the group key, a
// tab, the final as the 8 little-endian bytes of its float64 bits and, when
// s's aggregate is counted (agg.WithCount), the group's encoded state behind
// a uvarint of its length. A counted state leads with the group's tuple count
// (a varint), so the records of count and of counted jobs both carry every
// group's count and its state (count's state is its count). Every
// algorithm's reducers write their groups through it; it builds the value in
// the attempt's ValBuf, so it allocates nothing once that has grown.
func (s Spec) Emit(ctx *mr.RedCtx, key string, st agg.State) {
	if !keep(st, s.MinSup) {
		return
	}
	buf := ctx.ValBuf()
	v := appendFinal((*buf)[:0], st.Final())
	if agg.Counted(s.Agg) {
		// Encode the state behind the final, then move it up past its
		// length.
		v = st.AppendEncode(v)
		n := len(v) - 8
		var size [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(size[:], uint64(n))
		v = append(v, size[:k]...)
		copy(v[8+k:], v[8:8+n])
		copy(v[8:], size[:k])
	}
	*buf = v
	ctx.EmitKV(key, v)
}

// counts is where the records of a job run under a spec keep each group's
// tuple count.
type counts uint8

const (
	noCounts     counts = iota // nowhere: the record is a final
	countIsFinal               // the job ran count: the final is the count
	countInState               // in the state behind the final: the job ran agg.WithCount
)

func (s Spec) counts() counts {
	switch {
	case agg.Counted(s.Agg):
		return countInState
	case s.Agg == nil || s.Agg.Name() == "count":
		return countIsFinal
	}
	return noCounts
}

// Run is the outcome of a cube computation on the MapReduce substrate.
type Run struct {
	Algorithm string
	Metrics   mr.JobMetrics
	// OutputPrefix is the DFS prefix under which the cube was written.
	OutputPrefix string
	// SketchBytes is the serialized SP-Sketch size (SP-Cube only).
	SketchBytes int
	// SampleTuples is the SP-Sketch sample size (SP-Cube only).
	SampleTuples int
	// SkewedGroups is the number of skewed c-groups the SP-Sketch
	// recorded (SP-Cube only).
	SkewedGroups int
}

// ComputeFunc is the signature every cube algorithm exports.
type ComputeFunc func(eng *mr.Engine, rel *relation.Relation, spec Spec) (*Run, error)

// Group is one materialized cube group.
type Group struct {
	Mask   lattice.Mask
	Packed []relation.Value
	Value  float64
}

// Result is a fully materialized cube, keyed by encoded group key: the test
// suite's oracle, and the map delta.Maintainer.Result collects for spcube
// -delta and the benchmark harness. Neither the maintained cube nor a served
// one is a Result: the maintainer keeps a SortedRun under an overlay, a
// server is built from its walk, and the public API reads a SortedRun too;
// benchmarks leave the cube in the (discarding) DFS and compare checksums.
type Result struct {
	D      int
	Groups map[string]float64
}

// NewResult creates an empty result for a d-dimensional cube.
func NewResult(d int) *Result {
	return &Result{D: d, Groups: make(map[string]float64)}
}

// Add records one group's final aggregate. The packed slice holds the
// projected values of the mask's dimensions only.
func (r *Result) Add(mask lattice.Mask, packed []relation.Value, value float64) {
	r.Groups[relation.GroupKeyPacked(uint32(mask), packed)] = value
}

// Lookup returns the aggregate of the group of dims projected on mask.
// The dims slice is full-width; GroupKey projects it by the mask.
func (r *Result) Lookup(mask lattice.Mask, dims []relation.Value) (float64, bool) {
	v, ok := r.Groups[relation.GroupKey(uint32(mask), dims)]
	return v, ok
}

// Len returns the number of groups in the cube.
func (r *Result) Len() int { return len(r.Groups) }

// Cuboid returns the groups of one cuboid, sorted by their packed values.
func (r *Result) Cuboid(mask lattice.Mask) []Group {
	var out []Group
	for key, v := range r.Groups {
		m, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			continue
		}
		if lattice.Mask(m) == mask {
			out = append(out, Group{Mask: mask, Packed: packed, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return relation.ComparePacked(out[i].Packed, out[j].Packed) < 0
	})
	return out
}

// Equal reports whether two results contain the same groups with the same
// values (within a small floating-point tolerance), returning a description
// of the first difference otherwise.
func (r *Result) Equal(o *Result) (bool, string) {
	if len(r.Groups) != len(o.Groups) {
		return false, fmt.Sprintf("group counts differ: %d vs %d", len(r.Groups), len(o.Groups))
	}
	for key, v := range r.Groups {
		ov, ok := o.Groups[key]
		if !ok {
			mask, packed, _ := relation.DecodeGroupKey(key)
			return false, fmt.Sprintf("group %s missing", relation.FormatGroup(nil, mask, packed, r.D))
		}
		if !floatEq(v, ov) {
			mask, packed, _ := relation.DecodeGroupKey(key)
			return false, fmt.Sprintf("group %s: %v vs %v", relation.FormatGroup(nil, mask, packed, r.D), v, ov)
		}
	}
	return true, ""
}

func floatEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// Brute computes the cube of rel by direct hash aggregation of every tuple
// into all 2^d of its projections. It is the test suite's ground truth.
func Brute(rel *relation.Relation, f agg.Func) *Result {
	return BruteSpec(rel, Spec{Agg: f})
}

// BruteSpec is Brute with a full Spec (iceberg thresholds included).
func BruteSpec(rel *relation.Relation, spec Spec) *Result {
	d := rel.D()
	f, minSup := spec.Effective()
	res := NewResult(d)
	states := make(map[string]agg.State)
	var buf []byte
	for _, t := range rel.Tuples {
		for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
			buf = relation.EncodeGroupKey(buf, uint32(mask), t.Dims)
			key := string(buf)
			st, ok := states[key]
			if !ok {
				st = f.NewState()
				states[key] = st
			}
			st.Add(t.Measure)
		}
	}
	for key, st := range states {
		if !keep(st, minSup) {
			continue
		}
		res.Groups[key] = st.Final()
	}
	return res
}

// CollectDFS parses a cube a job run under spec wrote to the engine's DFS
// (non-discard mode) under the given prefix into a Result, in file order.
func CollectDFS(eng *mr.Engine, prefix string, d int, spec Spec) (*Result, error) {
	res := NewResult(d)
	for _, name := range eng.FS.List(prefix) {
		data, err := eng.FS.Read(name)
		if err != nil {
			return nil, err
		}
		err = walkRecords(data, spec.counts() == countInState, func(off, keyLen int) {
			res.Groups[string(data[off:off+keyLen])] = decodeFinal(data[off+keyLen+1:])
		})
		if err != nil {
			return nil, fmt.Errorf("cube: parsing %s: %w", name, err)
		}
	}
	return res, nil
}

// appendFinal appends a final aggregate value to dst as an output record
// holds it: the 8 little-endian bytes of its float64 bits.
func appendFinal(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// decodeFinal parses an appendFinal value.
func decodeFinal(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
