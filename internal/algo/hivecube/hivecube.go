// Package hivecube models Hive's CUBE operator (the "Hive" baseline of the
// paper's Figures 4-8), as compiled by Hive 0.13 for a cube query: a single
// MapReduce round in which each mapper expands every row into all 2^d
// grouping sets and aggregates them in a bounded in-memory hash table that
// is flushed to the shuffle whenever it fills (hive.map.aggr with its
// memory-pressure flush); grouping-set keys are then hash-partitioned to
// reducers, which merge the partial aggregates.
//
// The two weaknesses the paper observes are inherent to this plan and are
// reproduced mechanically here:
//
//   - Map time: every row is processed 2^d times through an interpreted
//     operator pipeline and the hash table churns on high-cardinality data,
//     so map output stays near n·2^d records and mappers are CPU-bound
//     (Figures 4c, 5b, 6b, 7c).
//
//   - Reducers hold their partition's aggregation state in JVM memory with
//     large deserialized-object overhead; when skew concentrates a large
//     share of the shuffle on few reducers, they exceed their heap and the
//     job dies (Figure 6a: Hive "got stuck as some reducers got out of
//     memory" for p ≥ 0.4).
package hivecube

import (
	"sort"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// memInflation is the deserialized-object amplification applied to reducer
// input when checking heap pressure.
const memInflation = 2

// Options tune the model.
type Options struct {
	// HashEntries is the capacity of the map-side aggregation hash table
	// (rows of per-group state a mapper's heap holds). Zero derives it as
	// MemTuples/32, reflecting hive.map.aggr.hash.percentmemory and Java
	// per-entry overhead.
	HashEntries int
	// DisableOOM makes reducer overload degrade into spill time instead of
	// failing, for experiments that need Hive to limp through.
	DisableOOM bool
	// DisableMapAggregation models Hive's hash.min.reduction heuristic
	// giving up on map-side aggregation (which real Hive 0.13 does on
	// high-cardinality mixtures — the paper's gen-binomial runs at p>=0.4
	// "got stuck as some reducers got out of memory", consistent with raw
	// grouping-set rows flooding the reducers). Every grouping-set row is
	// then shuffled raw.
	DisableMapAggregation bool
}

// Compute runs the Hive-style cube with default options.
func Compute(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	return ComputeOpts(eng, rel, spec, Options{})
}

// ComputeOpts runs the Hive-style cube with explicit options.
func ComputeOpts(eng *mr.Engine, rel *relation.Relation, spec cube.Spec, opts Options) (*cube.Run, error) {
	d := rel.D()
	f, minSup := spec.Effective()
	full := lattice.Full(d)
	capacity := opts.HashEntries
	if capacity <= 0 {
		// The hash competes with the 2^d grouping-set expansion buffers
		// and Java object overhead for the task heap.
		capacity = eng.MemTuples(rel.N()) / 32
	}
	if capacity < 16 {
		capacity = 16
	}

	// Map-side aggregation hash. Map tasks may run in parallel, so each
	// task owns its table and key buffer through the engine's task state;
	// MapFlush drains the flushing task's own table.
	type taskState struct {
		hash map[string]agg.State
		kb   []byte
		vb   []byte
	}
	flush := func(ctx *mr.MapCtx, ts *taskState) {
		// Hive flushes the whole table under memory pressure; emission
		// order must be deterministic for reproducible runs.
		keys := make([]string, 0, len(ts.hash))
		for key := range ts.hash {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ts.vb = ts.hash[key].AppendEncode(ts.vb[:0])
			ctx.EmitCopied(key, ts.vb)
		}
		clear(ts.hash)
	}

	job := &mr.Job{
		Name: "hive-cube",
		TaskState: func() any {
			return &taskState{hash: make(map[string]agg.State, capacity)}
		},
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			ts := ctx.State().(*taskState)
			for mask := lattice.Mask(0); mask <= full; mask++ {
				// Interpreted operator pipeline: SerDe + object
				// inspection per grouping-set row, then the hash probe.
				ctx.ChargeOps(2)
				ts.kb = relation.EncodeGroupKey(ts.kb, uint32(mask), t.Dims)
				if opts.DisableMapAggregation {
					st := f.NewState()
					st.Add(t.Measure)
					ts.vb = st.AppendEncode(ts.vb[:0])
					ctx.EmitBytes(ts.kb, ts.vb)
					continue
				}
				// The string(ts.kb) lookup does not allocate; the key is
				// materialized only when a new table entry is created.
				st, ok := ts.hash[string(ts.kb)]
				if !ok {
					if len(ts.hash) >= capacity {
						flush(ctx, ts)
					}
					st = f.NewState()
					ts.hash[string(ts.kb)] = st
				}
				st.Add(t.Measure)
			}
		},
		MapFlush: func(ctx *mr.MapCtx) { flush(ctx, ctx.State().(*taskState)) },
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			st := f.NewState()
			for _, v := range vals {
				p, err := f.DecodeState(v)
				if err != nil {
					continue
				}
				st.Merge(p)
				ctx.ChargeOps(1)
			}
			if !cube.Keep(st, minSup) {
				return
			}
			ctx.EmitKV(key, cube.EncodeFinal(st.Final()))
		},
		// Hive's interpreted SerDe/ObjectInspector row pipeline makes its
		// mappers slow; its reduce side streams pre-serialized counters
		// cheaply (calibrated against Figure 4b/5b orderings).
		MapCPUFactor:     2.0,
		ReduceCPUFactor:  0.55,
		FailOnReducerOOM: !opts.DisableOOM,
		MemInflation:     memInflation,
		OutputPrefix:     "out/hive-cube/",
	}

	res, err := eng.RunTuples(job, rel.Tuples)
	run := &cube.Run{Algorithm: "hive", OutputPrefix: "out/hive-cube/"}
	if res != nil {
		run.Metrics.Add(res.Metrics)
	}
	if err != nil {
		return run, err
	}
	return run, nil
}
