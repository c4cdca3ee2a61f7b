// Package sketch implements the Skews and Partitions Sketch (SP-Sketch) of
// Milo & Altshuler (SIGMOD'16, §4).
//
// The SP-Sketch mirrors the cube lattice: for every cuboid C it records
// (1) skews(C) — the set of skewed c-groups of C, i.e. groups whose tuple
// set exceeds a machine's memory m, and (2) partition-elements(C) — k−1
// tuples that split sorted(R,C) into k ranges of O(m) non-skewed tuples
// each (Definition 4.1, Proposition 4.2).
//
// The practical sketch is built from a uniform sample: each tuple is kept
// with probability α = ln(n·k)/m, and a group is recorded as skewed when its
// sample count exceeds β = ln(n·k) (§4.2, Algorithm 2). Propositions
// 4.4–4.7 show the sample and the sketch are both O(m) and that all skewed
// groups are captured with high probability; the package's tests verify
// these properties empirically. The exact ("utopian") sketch is the same
// procedure with α = 1 and β = m, so there is one builder, buildFromSample:
// Build runs it on round 1's sample, BuildExact on all of R. Only SP-Cube's
// sketch round builds a sketch to run on; the exact one is the reference the
// tests hold the sampled one to.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/buc"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// Sketch is the Skews and Partitions Sketch.
type Sketch struct {
	// D is the number of cube dimensions; K the number of machines.
	D int
	K int
	// SampleN is the number of sampled tuples the sketch was built from
	// (0 for an exact sketch).
	SampleN int
	// Alpha and Beta record the sampling probability and skew threshold
	// used during construction.
	Alpha float64
	Beta  float64

	// skews[mask] holds the skewed c-groups of cuboid mask, keyed by the
	// packed-values encoding of the group.
	skews []map[string]struct{}
	// parts[mask] holds the cuboid's sorted partition elements: at most
	// k−1 packed projections.
	parts [][][]relation.Value
}

// New returns the empty sketch of a d-dimensional relation on k machines:
// no skews, no partition elements, nothing sampled. Filled through AddSkew
// and SetPartitionElements, it is whatever sketch its caller derives.
func New(d, k int) *Sketch {
	s := &Sketch{
		D:     d,
		K:     k,
		skews: make([]map[string]struct{}, 1<<uint(d)),
		parts: make([][][]relation.Value, 1<<uint(d)),
	}
	for i := range s.skews {
		s.skews[i] = make(map[string]struct{})
	}
	return s
}

// AddSkew records a skewed c-group.
func (s *Sketch) AddSkew(mask lattice.Mask, packed []relation.Value) {
	var buf [binary.MaxVarintLen32 * lattice.MaxDims]byte
	s.skews[mask][string(relation.AppendValues(buf[:0], packed))] = struct{}{}
}

// SetPartitionElements records a cuboid's sorted partition elements.
func (s *Sketch) SetPartitionElements(mask lattice.Mask, elems [][]relation.Value) {
	s.parts[mask] = elems
}

// HasSkews reports whether cuboid mask records any skewed c-group at all.
func (s *Sketch) HasSkews(mask lattice.Mask) bool { return len(s.skews[mask]) > 0 }

// IsSkewed reports whether the c-group of the given packed projection is
// recorded as skewed in cuboid mask. The mapper probes it once per lattice
// node per tuple, so the probe key is built on the stack and a cuboid with
// no skews answers without one.
func (s *Sketch) IsSkewed(mask lattice.Mask, packed []relation.Value) bool {
	m := s.skews[mask]
	if len(m) == 0 {
		return false
	}
	var buf [binary.MaxVarintLen32 * lattice.MaxDims]byte
	_, ok := m[string(relation.AppendValues(buf[:0], packed))]
	return ok
}

// Partition returns the range partition (in [0, K)) that the packed
// projection belongs to in cuboid mask: partition 0 holds t ≤ e0, partition
// i holds e_{i-1} < t ≤ e_i, partition K−1 holds t > e_{K-2} (§4.1).
func (s *Sketch) Partition(mask lattice.Mask, packed []relation.Value) int {
	elems := s.parts[mask]
	return sort.Search(len(elems), func(i int) bool {
		return relation.ComparePacked(packed, elems[i]) <= 0
	})
}

// NumSkews returns the total number of skewed c-groups recorded.
func (s *Sketch) NumSkews() int {
	n := 0
	for _, m := range s.skews {
		n += len(m)
	}
	return n
}

// SkewedGroups returns the skewed groups of cuboid mask (packed values),
// sorted, for inspection and tests.
func (s *Sketch) SkewedGroups(mask lattice.Mask) [][]relation.Value {
	var out [][]relation.Value
	for key := range s.skews[mask] {
		g := make([]relation.Value, mask.Level())
		if _, err := relation.DecodeValues(g, []byte(key)); err == nil {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return relation.ComparePacked(out[i], out[j]) < 0 })
	return out
}

// Wire format. The sketch's serialized size is a paper-reported quantity
// (Figures 5c and 6c), so the encoding must be a pure function of the
// sketch's content. encoding/gob is not: it assigns user type IDs from a
// process-global counter in first-use order, so the encoded size shifted
// by a byte depending on what else had gob-encoded first in the process
// (the proc execution backend's RPC layer, for instance). The layout is a
// fixed header followed by varint-framed sections:
//
//	magic "SPSK" | version (1 byte) | D, K, SampleN (uvarint)
//	Alpha, Beta (IEEE 754 bits, 8 bytes little-endian each)
//	2^D skew sets: count, then each key as length-prefixed bytes (sorted)
//	parts presence flag (1 byte); if 1, 2^D element lists: count, then
//	each element as a count-prefixed run of values (relation.AppendValues)
const (
	wireMagic   = "SPSK"
	wireVersion = 1
)

// Encode serializes the sketch (the form distributed to all machines
// through the DFS before round 2). The encoding is deterministic: equal
// sketches encode to equal bytes regardless of process history.
func (s *Sketch) Encode() ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = append(buf, wireMagic...)
	buf = append(buf, wireVersion)
	buf = binary.AppendUvarint(buf, uint64(s.D))
	buf = binary.AppendUvarint(buf, uint64(s.K))
	buf = binary.AppendUvarint(buf, uint64(s.SampleN))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Alpha))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Beta))
	for _, m := range s.skews {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
		}
	}
	if s.parts == nil {
		buf = append(buf, 0)
		return buf, nil
	}
	buf = append(buf, 1)
	for _, elems := range s.parts {
		buf = binary.AppendUvarint(buf, uint64(len(elems)))
		for _, el := range elems {
			buf = binary.AppendUvarint(buf, uint64(len(el)))
			buf = relation.AppendValues(buf, el)
		}
	}
	return buf, nil
}

// wireReader walks an encoded sketch, remembering the first error; every
// accessor returns a zero value once the stream is exhausted or corrupt,
// so Decode can validate once at the end instead of after every read.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("sketch: decode: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// values reads n values written by relation.AppendValues.
func (r *wireReader) values(n int) []relation.Value {
	if r.err != nil {
		return nil
	}
	vals := make([]relation.Value, n)
	if r.b, r.err = relation.DecodeValues(vals, r.b); r.err != nil {
		r.err = fmt.Errorf("sketch: decode: %w", r.err)
	}
	return vals
}

func (r *wireReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("sketch: decode: truncated: want %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// count reads a length prefix and bounds it against the bytes remaining
// (every counted item occupies at least one byte), so a corrupted count
// cannot drive a giant allocation.
func (r *wireReader) count() int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.b)) {
		r.err = fmt.Errorf("sketch: decode: count %d exceeds remaining %d bytes", v, len(r.b))
		return 0
	}
	return int(v)
}

// fits fails unless n items of at least a byte each fit in the bytes
// remaining.
func (r *wireReader) fits(n int, what string) error {
	if n > len(r.b) {
		return fmt.Errorf("sketch: decode: %d %s do not fit in the remaining %d bytes", n, what, len(r.b))
	}
	return nil
}

// Decode parses an encoded sketch, validating the wire form before
// trusting it: a truncated or corrupted sketch file would otherwise panic
// deep inside cuboid lookups (skews/parts are indexed by mask up to 2^D).
func Decode(data []byte) (*Sketch, error) {
	if len(data) < len(wireMagic)+1 || string(data[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("sketch: decode: bad magic")
	}
	if v := data[len(wireMagic)]; v != wireVersion {
		return nil, fmt.Errorf("sketch: decode: wire version %d, want %d", v, wireVersion)
	}
	r := &wireReader{b: data[len(wireMagic)+1:]}
	d := int(r.uvarint())
	k := int(r.uvarint())
	sampleN := int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if d < 0 || d > lattice.MaxDims {
		return nil, fmt.Errorf("sketch: decode: dimensions %d out of range [0, %d]", d, lattice.MaxDims)
	}
	if k < 1 {
		return nil, fmt.Errorf("sketch: decode: machine count %d, want at least 1", k)
	}
	ab := r.bytes(16)
	if r.err != nil {
		return nil, r.err
	}
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(ab[:8]))
	beta := math.Float64frombits(binary.LittleEndian.Uint64(ab[8:]))
	// 2^D skew sets of at least a count byte each, then the partition flag:
	// a header whose sets cannot fit must not allocate them.
	if err := r.fits(1<<uint(d)+1, "skew sets"); err != nil {
		return nil, err
	}
	s := New(d, k)
	s.SampleN = sampleN
	s.Alpha = alpha
	s.Beta = beta
	for i := range s.skews {
		n := r.count()
		for j := 0; j < n && r.err == nil; j++ {
			s.skews[i][string(r.bytes(r.uvarint()))] = struct{}{}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	flag := r.bytes(1)
	if r.err != nil {
		return nil, r.err
	}
	switch flag[0] {
	case 0:
		// No partition elements on the wire: keep New's fresh empty
		// sets, so lookups on any cuboid still work.
	case 1:
		if err := r.fits(1<<uint(d), "partition lists"); err != nil {
			return nil, err
		}
		s.parts = make([][][]relation.Value, 1<<uint(d))
		for i := range s.parts {
			n := r.count()
			elems := make([][]relation.Value, 0, n)
			for j := 0; j < n && r.err == nil; j++ {
				elems = append(elems, r.values(r.count()))
			}
			s.parts[i] = elems
		}
	default:
		return nil, fmt.Errorf("sketch: decode: bad partition flag %d", flag[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("sketch: decode: %d trailing bytes", len(r.b))
	}
	return s, nil
}

// Bytes returns the serialized size of the sketch — the quantity plotted in
// Figures 5c and 6c of the paper.
func (s *Sketch) Bytes() int {
	b, err := s.Encode()
	if err != nil {
		return 0
	}
	return len(b)
}

// Params returns the sampling probability α = ln(n·k)/m and skew threshold
// β = ln(n·k) for a relation of n tuples on k machines with memory m.
func Params(n, k, m int) (alpha, beta float64) {
	if n < 1 {
		n = 1
	}
	beta = math.Log(float64(n) * float64(k))
	if beta < 1 {
		beta = 1
	}
	alpha = beta / float64(m)
	if alpha > 1 {
		alpha = 1
	}
	return alpha, beta
}

// BuildResult carries the sketch together with the metrics of the
// MapReduce round that built it.
type BuildResult struct {
	Sketch  *Sketch
	Metrics mr.RoundMetrics
	// EncodedBytes is the serialized sketch size written to the DFS.
	EncodedBytes int
}

// SampleJob is the sampling round that opens Algorithm 2, as one job: every
// map task keeps each tuple of its split with probability alpha and ships
// it to the single reducer, which hands reduce the decoded sample of a
// d-dimensional relation (it is not called on an empty sample). A map task's
// RNG stream is a function of seed·salt and its task id alone: map tasks may
// run in parallel, and a retried task must restart its stream from the
// beginning or it would sample different tuples than the fault-free run.
// Callers with different salts draw independent samples. The RNG and the
// encode buffer are engine-issued task state; TaskState has no task-id
// argument, so the RNG is seeded lazily on first use.
func SampleJob(name string, d int, seed, salt int64, alpha float64, reduce func(ctx *mr.RedCtx, sample []relation.Tuple)) *mr.Job {
	type taskState struct {
		rng *rand.Rand
		buf []byte
	}
	return &mr.Job{
		Name:      name,
		Reducers:  1,
		Partition: func(string, int) int { return 0 },
		TaskState: func() any { return new(taskState) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			ts := ctx.State().(*taskState)
			if ts.rng == nil {
				ts.rng = rand.New(rand.NewSource(seed*salt + int64(ctx.Task)))
			}
			if ts.rng.Float64() <= alpha {
				ts.buf = relation.EncodeTuple(ts.buf, t)
				ctx.EmitCopied("s", ts.buf)
			}
		},
		Reduce: func(ctx *mr.RedCtx, _ string, vals [][]byte) {
			sample := make([]relation.Tuple, 0, len(vals))
			for _, v := range vals {
				t, err := relation.DecodeTuple(v, d)
				if err != nil {
					continue
				}
				sample = append(sample, t)
			}
			reduce(ctx, sample)
		},
	}
}

// Build runs the paper's Algorithm 2 as round 1 of SP-Cube: k mappers
// sample their input splits, one reducer assembles the sample, builds the
// sketch in memory, and writes it to the DFS for distribution.
func Build(eng *mr.Engine, rel *relation.Relation, seed int64) (*BuildResult, error) {
	n := rel.N()
	d := rel.D()
	k := eng.Cfg.Workers
	m := eng.MemTuples(n)
	alpha, beta := Params(n, k, m)

	var built *Sketch
	job := SampleJob("sp-sketch", d, seed, 1_000_003, alpha, func(ctx *mr.RedCtx, sample []relation.Tuple) {
		built = buildFromSample(sample, d, k, alpha, beta, ctx.ChargeOps)
		enc, err := built.Encode()
		if err == nil {
			ctx.EmitKV("sketch", enc)
		}
	})
	res, err := eng.RunTuples(job, rel.Tuples)
	if err != nil {
		return nil, err
	}
	if built == nil {
		// Degenerate case: the sample was empty (tiny inputs). Build an
		// empty sketch so downstream code still works.
		built = New(d, k)
		built.Alpha = alpha
		built.Beta = beta
	}
	return &BuildResult{Sketch: built, Metrics: res.Metrics, EncodedBytes: built.Bytes()}, nil
}

// buildFromSample implements the build-sketch procedure: BUC over the sample
// with an iceberg threshold of β detects the skewed groups, and per-cuboid
// sorts of the sample yield the partition elements. BUC permutes its input,
// so it runs on a copy: the sample may be a relation somebody else holds.
func buildFromSample(sample []relation.Tuple, d, k int, alpha, beta float64, charge func(int64)) *Sketch {
	s := New(d, k)
	s.SampleN = len(sample)
	s.Alpha = alpha
	s.Beta = beta
	if len(sample) == 0 {
		return s
	}

	// Skews: groups whose sample count exceeds β (count > β ⇔ count ≥
	// ⌊β⌋+1, which is exactly an iceberg threshold for BUC).
	minSup := int(math.Floor(beta)) + 1
	work := make([]relation.Tuple, len(sample))
	copy(work, sample)
	buc.Compute(work, d, agg.Count, minSup, func(mask lattice.Mask, packed []relation.Value, _ agg.State) {
		s.AddSkew(mask, packed)
	})
	charge(int64(len(sample)) * int64(uint(1)<<uint(d)))

	// Partition elements: for every cuboid, sort the sample w.r.t. <_C
	// and take the k−1 evenly spaced elements (§4.2 "Partitions"). The apex
	// cuboid has a single (empty) projection; range partitioning is vacuous
	// there. The sorts are independent, so they run on up to GOMAXPROCS
	// goroutines; the charges are a float sum and the sketch is filled
	// afterwards, both in ascending mask order.
	full := lattice.Full(d)
	elems := make([][][]relation.Value, full+1)
	var next atomic.Uint32 // the last cuboid handed out
	var wg sync.WaitGroup
	for i := min(runtime.GOMAXPROCS(0), int(full)); i > 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := make([]int32, len(sample))
			for mm := next.Add(1); mm <= uint32(full); mm = next.Add(1) {
				for i := range idx {
					idx[i] = int32(i)
				}
				slices.SortFunc(idx, func(a, b int32) int {
					return relation.CompareProjected(sample[a].Dims, sample[b].Dims, mm)
				})
				quantiles := make([][]relation.Value, 0, k-1)
				for i := 1; i < k; i++ {
					pos := min(i*len(sample)/k, len(sample)-1)
					quantiles = append(quantiles, relation.Project(sample[idx[pos]].Dims, mm))
				}
				elems[mm] = dedupSorted(quantiles)
			}
		}()
	}
	wg.Wait()
	for mask := lattice.Mask(1); mask <= full; mask++ {
		s.SetPartitionElements(mask, elems[mask])
		charge(int64(len(sample)))
	}
	return s
}

// dedupSorted removes duplicate consecutive partition elements; duplicates
// arise when the sample has heavy value repetition and would create empty
// ranges.
func dedupSorted(elems [][]relation.Value) [][]relation.Value {
	out := elems[:0]
	for i, e := range elems {
		if i == 0 || relation.ComparePacked(e, out[len(out)-1]) != 0 {
			out = append(out, e)
		}
	}
	return out
}

// BuildExact computes the utopian SP-Sketch (§4.2) of the full relation. It
// is Algorithm 2 with nothing left to chance: every tuple is in the "sample"
// (α = 1) and the skew threshold is the memory itself (β = m), so a group is
// skewed exactly when its tuple set exceeds m and the partition elements are
// the exact k-quantiles of each cuboid's sorted tuples. The cost is
// buildFromSample's on n tuples — one BUC pass pruned at m+1 plus 2^d sorts
// of n indices. SampleN, Alpha and Beta stay zero: an exact sketch was not
// sampled, and its Encode bytes say so.
func BuildExact(rel *relation.Relation, k, m int) *Sketch {
	s := buildFromSample(rel.Tuples, rel.D(), k, 1, float64(m), func(int64) {})
	s.SampleN, s.Alpha, s.Beta = 0, 0, 0
	return s
}
