// Package naive implements Algorithm 1 of the paper: the straightforward
// MapReduce cube. Every mapper projects each tuple on all 2^d subsets of
// its dimensions and emits one (c-group, measure) pair per projection; the
// framework hash-partitions groups to reducers, and each reducer aggregates
// the value list of every group it receives.
//
// The paper uses this algorithm to expose the three problems an efficient
// cube algorithm must solve (§3): skewed groups overwhelm single reducers
// (their value lists exceed memory and spill), hash partitioning gives no
// load-balance guarantee, and the n·2^d intermediate records ignore the
// relationships between c-groups.
package naive

import (
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// Compute runs the naive cube algorithm.
func Compute(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	d := rel.D()
	f, _ := spec.Effective()
	full := lattice.Full(d)

	// Per-task scratch: map tasks may run in parallel, so the reusable
	// encode buffers live in engine-issued task state. Keys and values are
	// built in the scratch and emitted through EmitBytes, which copies
	// them into the attempt arena — no per-emit allocations.
	type taskState struct {
		keyBuf []byte
		valBuf []byte
	}
	job := &mr.Job{
		Name:      "naive-cube",
		TaskState: func() any { return new(taskState) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			st := ctx.State().(*taskState)
			st.valBuf = cube.AppendMeasure(st.valBuf[:0], t.Measure)
			for mask := lattice.Mask(0); mask <= full; mask++ {
				ctx.ChargeOps(1)
				st.keyBuf = relation.EncodeGroupKey(st.keyBuf, uint32(mask), t.Dims)
				ctx.EmitBytes(st.keyBuf, st.valBuf)
			}
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			spec.Emit(ctx, key, cube.AddMeasures(ctx, f, vals))
		},
		OutputPrefix: "out/naive-cube/",
	}

	res, err := eng.RunTuples(job, rel.Tuples)
	run := &cube.Run{Algorithm: "naive", OutputPrefix: "out/naive-cube/"}
	run.Metrics.AddResult(res)
	return run, err
}
