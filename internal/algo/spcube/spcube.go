// Package spcube implements the SP-Cube algorithm of Milo & Altshuler
// (SIGMOD'16, §5): a two-round MapReduce cube computation driven by the
// SP-Sketch.
//
// Round 1 builds the SP-Sketch (Algorithm 2; see the sketch package). In
// round 2 (Algorithm 3) every mapper walks each tuple's lattice bottom-up in
// BFS order: skewed c-groups are partially aggregated in the mapper's memory
// and shipped as compact partial states to a dedicated skew reducer, while
// the first unmarked non-skewed c-group found causes the full tuple to be
// sent to the range-partitioned reducer responsible for that group, with the
// group and all its lattice ancestors marked as handled. (A tuple all of
// whose 2^d groups are skewed would walk every node only to aggregate: it is
// aggregated once per row instead and pushed down the lattice when the task
// flushes.) The receiving reducer recovers every ancestor group it owns by
// running BUC locally over the group's tuple set (factorized processing),
// using the ownership rule: a lattice node is computed by the BFS-minimal
// non-skewed descendant of its group. Because skewness is downward-closed,
// ownership failures propagate upward, letting the reducer prune whole
// lattice branches.
package spcube

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/buc"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// Key prefixes distinguish the two kinds of intermediate records.
const (
	prefixGroup = 'G' // non-skewed c-group: value is a full encoded tuple
	prefixSkew  = 'S' // skewed c-group: value is an encoded partial state
)

// Options tune the algorithm; the zero value is the paper's algorithm.
// The two disable flags implement the ablations studied in the benchmark
// suite.
type Options struct {
	// DisableSkewHandling turns off mapper-side partial aggregation of
	// skewed c-groups: every group takes the range-partitioned path.
	// Skewed groups then flood single reducers, exactly the failure mode
	// §3.2 describes.
	DisableSkewHandling bool
	// DisableFactorization turns off ancestor marking: every non-skewed
	// lattice node is emitted individually (keyed by its own group), and
	// reducers aggregate measures directly instead of running BUC.
	DisableFactorization bool
	// Seed drives the sketch's sampling round.
	Seed int64
}

// Compute runs SP-Cube with default options.
func Compute(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	return ComputeOpts(eng, rel, spec, Options{})
}

// ComputeOpts runs SP-Cube with explicit options.
func ComputeOpts(eng *mr.Engine, rel *relation.Relation, spec cube.Spec, opts Options) (*cube.Run, error) {
	d := rel.D()
	if d > lattice.MaxDims {
		return nil, fmt.Errorf("spcube: %d dimensions exceed the supported maximum %d", d, lattice.MaxDims)
	}
	run := &cube.Run{Algorithm: "sp-cube", OutputPrefix: "out/sp-cube/"}

	// Round 1: build the SP-Sketch.
	built, err := sketch.Build(eng, rel, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("spcube: sketch round: %w", err)
	}
	sk := built.Sketch
	run.Metrics.Add(built.Metrics)
	run.SketchBytes = built.EncodedBytes
	run.SampleTuples = sk.SampleN
	run.SkewedGroups = sk.NumSkews()

	// Round 2: cube computation (Algorithm 3).
	round, err := runCubeRound(eng, rel, spec, sk, opts, run.OutputPrefix)
	if err != nil {
		return nil, err
	}
	run.Metrics.Add(round.Metrics)
	return run, nil
}

// ComputeMulti computes one cube per spec while building the SP-Sketch only
// once — the sketch captures properties of the relation alone and is
// independent of the aggregate function (§4), so a single round 1 serves
// any number of round 2s. The i-th run's output lands under
// "out/sp-cube/<i>/".
func ComputeMulti(eng *mr.Engine, rel *relation.Relation, specs []cube.Spec, opts Options) ([]*cube.Run, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("spcube: ComputeMulti with no specs")
	}
	d := rel.D()
	if d > lattice.MaxDims {
		return nil, fmt.Errorf("spcube: %d dimensions exceed the supported maximum %d", d, lattice.MaxDims)
	}
	built, err := sketch.Build(eng, rel, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("spcube: sketch round: %w", err)
	}
	runs := make([]*cube.Run, 0, len(specs))
	for i, spec := range specs {
		run := &cube.Run{
			Algorithm:    "sp-cube",
			OutputPrefix: fmt.Sprintf("out/sp-cube/%d/", i),
			SketchBytes:  built.EncodedBytes,
			SampleTuples: built.Sketch.SampleN,
			SkewedGroups: built.Sketch.NumSkews(),
		}
		if i == 0 {
			// The sketch round is charged once, to the first run.
			run.Metrics.Add(built.Metrics)
		}
		round, err := runCubeRound(eng, rel, spec, built.Sketch, opts, run.OutputPrefix)
		if err != nil {
			return nil, err
		}
		run.Metrics.Add(round.Metrics)
		runs = append(runs, run)
	}
	return runs, nil
}

func runCubeRound(eng *mr.Engine, rel *relation.Relation, spec cube.Spec, sk *sketch.Sketch, opts Options, outPrefix string) (*mr.RoundResult, error) {
	return eng.RunTuples(cubeJob(rel.D(), eng.Cfg.Workers, spec, sk, opts, outPrefix), rel.Tuples)
}

// fullySkewed is a map task's entry for one distinct tuple whose finest
// group (full mask) is skewed. st is the tuple's own partial aggregate when
// all 2^d of its projections are skewed too — it is then aggregated once per
// row and pushed down the lattice once, at flush — and nil when some
// projection is not: the sketch steers performance, never correctness, so
// down-closure is verified per tuple, not assumed, and a tuple that fails
// takes the walk like any partially-skewed one.
type fullySkewed struct {
	dims []relation.Value
	st   agg.State
}

// taskState is per-task: tasks of a round may run in parallel, so each map
// task owns its marks/partial-aggregate tables/buffers and each reduce task
// its subset-BFS cache.
type taskState struct {
	marks   *lattice.Marks
	skewAgg map[string]agg.State
	// fullAgg is keyed by the tuple's encoded dims; the sketch's full-mask
	// skew count bounds its size.
	fullAgg map[string]*fullySkewed
	keyBuf  []byte
	valBuf  []byte
	packBuf []relation.Value
	// subsetsBFS caches subset BFS orders per mask (reduce side).
	subsetsBFS [][]lattice.Mask
}

// cubeJob builds round 2 (Algorithm 3) for d dimensions on k machines.
func cubeJob(d, k int, spec cube.Spec, sk *sketch.Sketch, opts Options, outPrefix string) *mr.Job {
	bfs := lattice.BFSOrder(d)
	f, minSup := spec.Effective()

	isSkewed := func(mask lattice.Mask, packed []relation.Value) bool {
		if opts.DisableSkewHandling {
			return false
		}
		return sk.IsSkewed(mask, packed)
	}
	full := lattice.Full(d)
	// No tuple can be fully skewed when the finest cuboid records no skew
	// (every uniform input): the per-tuple probe below is skipped outright.
	fullSkews := !opts.DisableSkewHandling && sk.HasSkews(full)

	taskStateFn := func() any {
		return &taskState{
			marks:      lattice.NewMarks(d),
			skewAgg:    make(map[string]agg.State),
			fullAgg:    make(map[string]*fullySkewed),
			subsetsBFS: make([][]lattice.Mask, 1<<uint(d)),
		}
	}

	// skewState returns the task's partial aggregate of the skewed c-group
	// (mask, dims), creating it on first sight. The prefixed key is built in
	// scratch; the map lookup on string(ts.keyBuf) does not allocate, and
	// the key string is materialized only when the group is new.
	skewState := func(ts *taskState, mask lattice.Mask, dims []relation.Value) agg.State {
		ts.keyBuf = append(ts.keyBuf[:0], prefixSkew)
		ts.keyBuf = relation.AppendGroupKey(ts.keyBuf, uint32(mask), dims)
		st, ok := ts.skewAgg[string(ts.keyBuf)]
		if !ok {
			st = f.NewState()
			ts.skewAgg[string(ts.keyBuf)] = st
		}
		return st
	}

	mapTuple := func(ctx *mr.MapCtx, t relation.Tuple) {
		ts := ctx.State().(*taskState)
		if fullSkews && sk.IsSkewed(full, t.Dims) {
			ts.keyBuf = relation.AppendGroupKey(ts.keyBuf[:0], uint32(full), t.Dims)
			e, ok := ts.fullAgg[string(ts.keyBuf)]
			if !ok {
				e = &fullySkewed{dims: slices.Clone(t.Dims), st: f.NewState()}
				for _, mask := range bfs {
					ts.packBuf = relation.ProjectInto(ts.packBuf, t.Dims, uint32(mask))
					if !sk.IsSkewed(mask, ts.packBuf) {
						e.st = nil
						break
					}
				}
				ts.fullAgg[string(ts.keyBuf)] = e
			}
			if e.st != nil {
				e.st.Add(t.Measure)
				// The cost model stays Algorithm 3's: the walk below visits
				// all 2^d nodes of such a tuple and emits nothing, so it
				// charges exactly this — one op per node, back to back.
				// Simulated seconds are a float sum: one ChargeOps(2^d)
				// would round differently and move every committed figure.
				for range bfs {
					ctx.ChargeOps(1)
				}
				return
			}
		}
		ts.marks.Reset()
		for _, mask := range bfs {
			if ts.marks.Marked(mask) {
				continue
			}
			ctx.ChargeOps(1)
			ts.packBuf = relation.ProjectInto(ts.packBuf, t.Dims, uint32(mask))
			if isSkewed(mask, ts.packBuf) {
				// Partial aggregation of a skewed c-group in the mapper
				// (Algorithm 3, lines 6-8).
				skewState(ts, mask, t.Dims).Add(t.Measure)
				ts.marks.Mark(mask)
				continue
			}
			// Non-skewed: send the tuple to the range partition of this
			// c-group and mark the group and all its ancestors
			// (Algorithm 3, lines 9-12). Key and value are built in task
			// scratch and copied into the attempt arena by EmitBytes.
			ts.keyBuf = append(ts.keyBuf[:0], prefixGroup)
			ts.keyBuf = relation.AppendGroupKey(ts.keyBuf, uint32(mask), t.Dims)
			if opts.DisableFactorization {
				ts.valBuf = encodeMeasure(ts.valBuf, t.Measure)
				ctx.EmitBytes(ts.keyBuf, ts.valBuf)
				ts.marks.Mark(mask)
			} else {
				ts.valBuf = relation.EncodeTuple(ts.valBuf, t)
				ctx.EmitBytes(ts.keyBuf, ts.valBuf)
				ts.marks.MarkSupersetsIncl(mask)
			}
		}
	}

	mapFlush := func(ctx *mr.MapCtx) {
		// Ship the mapper's partial aggregates of skewed c-groups to the
		// skew reducer (Algorithm 3, lines 16-20). Sorted for determinism.
		ts := ctx.State().(*taskState)
		// Push each fully-skewed tuple's aggregate down to its 2^d
		// projections first. Every aggregate's Merge is exact and
		// commutative, so the states — and their encodings — are the ones
		// per-row Adds would have built, whatever the map's order.
		for _, e := range ts.fullAgg {
			if e.st == nil {
				continue
			}
			for _, mask := range bfs {
				skewState(ts, mask, e.dims).Merge(e.st)
			}
		}
		clear(ts.fullAgg)
		keys := make([]string, 0, len(ts.skewAgg))
		for key := range ts.skewAgg {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ts.valBuf = ts.skewAgg[key].AppendEncode(ts.valBuf[:0])
			ctx.EmitCopied(key, ts.valBuf)
		}
		clear(ts.skewAgg)
	}

	partition := func(key string, reducers int) int {
		if len(key) == 0 {
			return 0
		}
		if key[0] == prefixSkew {
			return 0 // the dedicated skew reducer (§5)
		}
		mask, packed, _, err := relation.ScanGroupKey([]byte(key[1:]))
		if err != nil {
			return 0
		}
		return 1 + sk.Partition(lattice.Mask(mask), packed)
	}

	// Ownership rule for reducers: node A (with representative dims)
	// belongs to base group M iff M is the BFS-minimal non-skewed subset
	// of A. Subset BFS orders are cached per mask in the reduce task's
	// private state.
	ownerIs := func(cache [][]lattice.Mask, base, a lattice.Mask, dims []relation.Value, scratch *[]relation.Value) bool {
		subs := cache[a]
		if subs == nil {
			subs = lattice.SubsetsBFS(a)
			cache[a] = subs
		}
		for _, m := range subs {
			*scratch = relation.ProjectInto(*scratch, dims, uint32(m))
			if !isSkewed(m, *scratch) {
				return m == base
			}
		}
		return false // all subsets skewed: A itself is skewed, not owned
	}

	reduce := func(ctx *mr.RedCtx, key string, vals [][]byte) {
		if len(key) == 0 {
			return
		}
		switch key[0] {
		case prefixSkew:
			// Merge the (at most k) mapper partial states of one skewed
			// c-group (Algorithm 3, lines 24-27).
			st := f.NewState()
			for _, v := range vals {
				part, err := f.DecodeState(v)
				if err != nil {
					continue
				}
				st.Merge(part)
				ctx.ChargeOps(1)
			}
			if !cube.Keep(st, minSup) {
				return
			}
			ctx.EmitKV(key[1:], cube.EncodeFinal(st.Final()))
		case prefixGroup:
			maskU, _, _, err := relation.ScanGroupKey([]byte(key[1:]))
			if err != nil {
				return
			}
			base := lattice.Mask(maskU)
			if opts.DisableFactorization {
				st := f.NewState()
				for _, v := range vals {
					m, ok := decodeMeasure(v)
					if !ok {
						continue
					}
					st.Add(m)
					ctx.ChargeOps(1)
				}
				if cube.Keep(st, minSup) {
					ctx.EmitKV(key[1:], cube.EncodeFinal(st.Final()))
				}
				return
			}
			// Factorized processing: rebuild set(g) and compute every
			// ancestor group owned by g with local BUC (Algorithm 3,
			// line 30) — which emits nothing and touches no tuple when
			// set(g) is below the iceberg threshold, as most sets of a
			// skewed relation are: those are not decoded.
			if len(vals) < minSup {
				return
			}
			cache := ctx.State().(*taskState).subsetsBFS
			tuples := make([]relation.Tuple, 0, len(vals))
			for _, v := range vals {
				t, err := relation.DecodeTuple(v, d)
				if err != nil {
					continue
				}
				tuples = append(tuples, t)
			}
			// BUC's iceberg threshold is exactly the cube's minimum
			// support: each received c-group's full tuple set is present
			// here, so pruning small partitions implements the iceberg
			// semantics precisely.
			var scratch []relation.Value
			var out []byte
			touches := buc.ComputeFrom(tuples, d, base, f, minSup,
				func(mask lattice.Mask, dims []relation.Value) buc.Decision {
					if ownerIs(cache, base, mask, dims, &scratch) {
						return buc.Emit
					}
					return buc.Prune
				},
				func(mask lattice.Mask, packed []relation.Value, st agg.State) {
					out = relation.EncodeGroupKey(out, uint32(mask), expand(packed, mask, d, &scratch))
					ctx.EmitKV(string(out), cube.EncodeFinal(st.Final()))
				})
			ctx.ChargeOps(touches)
		}
	}

	return &mr.Job{
		Name:         "sp-cube",
		Reducers:     k + 1,
		TaskState:    taskStateFn,
		MapTuple:     mapTuple,
		MapFlush:     mapFlush,
		Partition:    partition,
		Reduce:       reduce,
		OutputPrefix: outPrefix,
	}
}

// expand widens a packed projection back to full width so EncodeGroupKey
// (which projects by mask) can re-encode it.
func expand(packed []relation.Value, mask lattice.Mask, d int, scratch *[]relation.Value) []relation.Value {
	s := *scratch
	if cap(s) < d {
		s = make([]relation.Value, d)
	}
	s = s[:d]
	j := 0
	for i := 0; i < d; i++ {
		if mask.Has(i) {
			s[i] = packed[j]
			j++
		} else {
			s[i] = 0
		}
	}
	*scratch = s
	return s
}

func encodeMeasure(buf []byte, m int64) []byte {
	return binary.AppendVarint(buf[:0], m)
}

func decodeMeasure(b []byte) (int64, bool) {
	v, n := binary.Varint(b)
	return v, n > 0
}
