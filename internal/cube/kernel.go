package cube

import (
	"encoding/binary"
	"sort"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/mr"
)

// The record algebra every algorithm's shuffle shares. The algorithms differ
// in how they route c-groups, never in how a reducer folds a group: its
// values are either encoded partial states of the job's aggregate, which
// MergeStates merges, or varint tuple measures (AppendMeasure), which
// AddMeasures adds. Either way the one state that comes out goes to
// Spec.Emit.

// MergeStates returns a fresh state of f holding the merge of the encoded
// partial states in vals, skipping any that does not decode. It charges ctx
// one op per merged state. A nil ctx charges nothing: that is the combiner.
func MergeStates(ctx *mr.RedCtx, f agg.Func, vals [][]byte) agg.State {
	st := f.NewState()
	var ops int64
	for _, v := range vals {
		p, err := f.DecodeState(v)
		if err != nil {
			continue
		}
		st.Merge(p)
		ops++
	}
	if ctx != nil {
		ctx.ChargeOps(ops)
	}
	return st
}

// Combiner is the map-side combiner of a job whose values are encoded states
// of f: each key's values become their one merged state.
func Combiner(f agg.Func) func(key string, vals [][]byte) [][]byte {
	return func(_ string, vals [][]byte) [][]byte {
		return [][]byte{MergeStates(nil, f, vals).AppendEncode(nil)}
	}
}

// AppendMeasure appends one tuple's measure to buf as the value of a shuffle
// record AddMeasures reads: a varint.
func AppendMeasure(buf []byte, m int64) []byte { return binary.AppendVarint(buf, m) }

// AddMeasures returns a fresh state of f holding every AppendMeasure value in
// vals, skipping any that does not decode, and charges ctx one op per
// measure, as MergeStates does per state.
func AddMeasures(ctx *mr.RedCtx, f agg.Func, vals [][]byte) agg.State {
	st := f.NewState()
	var ops int64
	for _, v := range vals {
		m, n := binary.Varint(v)
		if n <= 0 {
			continue
		}
		st.Add(m)
		ops++
	}
	ctx.ChargeOps(ops)
	return st
}

// EmitStates ships a map task's table of partial states, keyed by shuffle
// key, in key order — emission order must not depend on map iteration — and
// empties the table. buf is the task's encode scratch; the grown buffer is
// returned for reuse.
func EmitStates(ctx *mr.MapCtx, table map[string]agg.State, buf []byte) []byte {
	keys := make([]string, 0, len(table))
	for key := range table {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		buf = table[key].AppendEncode(buf[:0])
		ctx.Emit(key, buf)
	}
	clear(table)
	return buf
}
