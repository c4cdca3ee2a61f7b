// Package pipesort implements a top-down MapReduce cube in the style of
// Lee, Kim, Moon & Lee (DaWaK'12), the parallelized Pipesort the paper
// discusses in §7: cuboids are computed level by level down the lattice,
// each cuboid aggregated from a parent cuboid one level above, yielding a
// *series* of d+1 MapReduce rounds.
//
// The paper excludes this algorithm from its experiments because the round
// count makes it strictly slower than the bottom-up competitors ("the more
// MapReduce rounds, the more are the ram-to-disk transactions") and because
// skewed c-groups still land on single reducers. This implementation exists
// to reproduce that analysis: cmd/spbench's "rounds" experiment shows the
// per-round startup and re-materialization overhead growing with d, exactly
// as §7 argues.
//
// Parent selection: every cuboid at level l aggregates from the parent at
// level l+1 obtained by adding the lowest absent attribute. (Classic
// Pipesort picks parents to minimize re-sorts along shared sort orders; the
// simulated substrate does not model sort order, so the deterministic
// lowest-attribute choice is equivalent here.)
package pipesort

import (
	"fmt"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// Compute runs the top-down cube.
func Compute(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	d := rel.D()
	if d > lattice.MaxDims {
		return nil, fmt.Errorf("pipesort: %d dimensions exceed the supported maximum %d", d, lattice.MaxDims)
	}
	f, _ := spec.Effective()
	run := &cube.Run{Algorithm: "pipesort", OutputPrefix: "out/pipesort/"}
	full := lattice.Full(d)

	// Round 0: the top cuboid (all attributes) from the raw relation.
	top := &mr.Job{
		Name:         "pipesort-l" + itoa(d),
		OutputPrefix: run.OutputPrefix,
		TaskState:    func() any { return new(taskState) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			ts := ctx.State().(*taskState)
			ctx.ChargeOps(1)
			ts.kb = relation.EncodeGroupKey(ts.kb, uint32(full), t.Dims)
			st := f.NewState()
			st.Add(t.Measure)
			ts.vb = st.AppendEncode(ts.vb[:0])
			ctx.EmitBytes(ts.kb, ts.vb)
		},
		Combine: cube.Combiner(f),
		Reduce:  reduceLevel(spec, f, d > 0),
	}
	res, err := eng.RunTuples(top, rel.Tuples)
	run.Metrics.AddResult(res)
	if err != nil {
		return run, err
	}
	parents := res.Output

	// Rounds 1..d: level l from level l+1.
	for level := d - 1; level >= 0; level-- {
		job := &mr.Job{
			Name:         "pipesort-l" + itoa(level),
			OutputPrefix: run.OutputPrefix,
			TaskState:    func() any { return new(taskState) },
			MapPair:      mapChildren(d, level),
			Combine:      cube.Combiner(f),
			Reduce:       reduceLevel(spec, f, level > 0),
		}
		res, err := eng.RunPairs(job, parents)
		run.Metrics.AddResult(res)
		if err != nil {
			return run, err
		}
		parents = res.Output
	}
	return run, nil
}

// taskState is the per-map-task scratch (map tasks may run in parallel):
// the widened group and the reusable key/value encode buffers emitted
// through EmitBytes.
type taskState struct {
	dims []relation.Value
	kb   []byte
	vb   []byte
}

// parentOf returns the level-(l+1) cuboid that computes the given cuboid:
// the one adding the lowest attribute not already present.
func parentOf(child lattice.Mask, d int) lattice.Mask {
	for j := 0; j < d; j++ {
		if !child.Has(j) {
			return child | 1<<uint(j)
		}
	}
	return child
}

// mapChildren re-keys each parent group to every child cuboid assigned to
// that parent.
func mapChildren(d, level int) func(ctx *mr.MapCtx, key string, val []byte) {
	// children[parent] lists the level-`level` cuboids aggregated from it.
	children := make(map[lattice.Mask][]lattice.Mask)
	for m := lattice.Mask(0); m <= lattice.Full(d); m++ {
		if m.Level() == level {
			p := parentOf(m, d)
			children[p] = append(children[p], m)
		}
	}
	return func(ctx *mr.MapCtx, key string, val []byte) {
		ts := ctx.State().(*taskState)
		mask, packed, _, err := relation.ScanGroupKey([]byte(key))
		if err != nil {
			return
		}
		ts.dims = relation.GroupVals(ts.dims, mask, packed, d)
		for _, child := range children[lattice.Mask(mask)] {
			ctx.ChargeOps(1)
			ts.kb = relation.EncodeGroupKey(ts.kb, uint32(child), ts.dims)
			ctx.EmitBytes(ts.kb, val)
		}
	}
}

// reduceLevel merges partial states, writes final groups (iceberg-filtered)
// to the output, and passes unfiltered states to the next round — iceberg
// thresholds are not anti-monotone across parent aggregation, so filtering
// must not propagate.
func reduceLevel(spec cube.Spec, f agg.Func, moreLevels bool) func(ctx *mr.RedCtx, key string, vals [][]byte) {
	return func(ctx *mr.RedCtx, key string, vals [][]byte) {
		st := cube.MergeStates(ctx, f, vals)
		spec.Emit(ctx, key, st)
		if moreLevels {
			ctx.EmitSide(key, st.AppendEncode(nil))
		}
	}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
