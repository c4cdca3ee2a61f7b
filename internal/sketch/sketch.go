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
				ctx.Emit("s", ts.buf)
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
// sketch in memory, and writes it to the DFS for distribution. A round
// that fails returns its metrics, and no sketch, beside the error.
func Build(eng *mr.Engine, rel *relation.Relation, seed int64) (*BuildResult, error) {
	n := rel.N()
	d := rel.D()
	k := eng.Cfg.Workers
	m := eng.MemTuples(n)
	alpha, beta := Params(n, k, m)

	var built *Sketch
	job := SampleJob("sp-sketch", d, seed, 1_000_003, alpha, func(ctx *mr.RedCtx, sample []relation.Tuple) {
		built = buildFromSample(sample, d, k, alpha, beta)
		// One BUC pass over the sample's 2^d projections, then one sort
		// of it per non-apex cuboid.
		ctx.ChargeOps(int64(len(sample)) * (int64(1)<<uint(d) + int64(lattice.Full(d))))
		enc, err := built.Encode()
		if err == nil {
			ctx.EmitKV("sketch", enc)
		}
	})
	res, err := eng.RunTuples(job, rel.Tuples)
	if err != nil {
		if res == nil {
			return nil, err
		}
		return &BuildResult{Metrics: res.Metrics}, err
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
func buildFromSample(sample []relation.Tuple, d, k int, alpha, beta float64) *Sketch {
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

	// Partition elements: for every cuboid, sort the sample w.r.t. <_C
	// and take the k−1 evenly spaced elements (§4.2 "Partitions"). The apex
	// cuboid has a single (empty) projection; range partitioning is vacuous
	// there. The sorts are independent, so they run on up to GOMAXPROCS
	// goroutines, each filling the sketch's slot of the cuboids it sorts.
	full := lattice.Full(d)
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
				s.SetPartitionElements(lattice.Mask(mm), dedupSorted(quantiles))
			}
		}()
	}
	wg.Wait()
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
	s := buildFromSample(rel.Tuples, rel.D(), k, 1, float64(m))
	s.SampleN, s.Alpha, s.Beta = 0, 0, 0
	return s
}
