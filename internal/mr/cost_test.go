package mr

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

// costShape sizes a word count: every map task reads emitting tuples that
// emit emits records each (of the same five words in every task) and idle
// ones that emit nothing; values are 8 bytes plus pad; every word is written
// outs times; the job may combine, and may spill under budget.
type costShape struct {
	emitting, idle, emits, pad, outs int
	combine                          bool
	budget                           int64
}

// costWorkers is the cluster the word count runs on: one map task per block
// of emitting + idle tuples.
const costWorkers = 4

// costMeasures are the five quantities a round's simulated time is charged
// by, in the order costMeasureNames names them.
type costMeasures [5]int64

var costMeasureNames = [...]string{"map input records", "emitted records", "shuffle bytes", "spilled bytes", "output records"}

// costRound runs the word count of shape s on the cost model.
func costRound(t *testing.T, s costShape) (costMeasures, float64) {
	t.Helper()
	value := func(n uint64) []byte {
		return binary.LittleEndian.AppendUint64(make([]byte, 0, 8+s.pad), n)[:8+s.pad]
	}
	sum := func(vals [][]byte) uint64 {
		var n uint64
		for _, v := range vals {
			n += binary.LittleEndian.Uint64(v)
		}
		return n
	}
	job := &Job{
		Name: "wordcount",
		MapTuple: func(ctx *MapCtx, tu relation.Tuple) {
			key, val := fmt.Sprintf("w%d", tu.Dims[0]), value(1)
			for i := int64(0); i < tu.Measure; i++ {
				ctx.Emit(key, val)
			}
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			n := binary.AppendUvarint(nil, sum(vals))
			for i := 0; i < s.outs; i++ {
				ctx.EmitKV(key, n)
			}
		},
	}
	if s.combine {
		job.Combine = func(_ string, vals [][]byte) [][]byte { return [][]byte{value(sum(vals))} }
	}
	block := s.emitting + s.idle
	tuples := make([]relation.Tuple, costWorkers*block)
	for i := range tuples {
		tuples[i].Dims = []relation.Value{relation.Value(i % block % 5)}
		if i%block < s.emitting {
			tuples[i].Measure = int64(s.emits)
		}
	}
	eng := New(Config{Workers: costWorkers, SpillBudgetBytes: s.budget, SpillDir: t.TempDir()}, dfs.New(true))
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Metrics
	m := costMeasures{2: r.ShuffleBytes, 3: r.SpillBytes, 4: r.OutputRecords}
	for _, mt := range r.Mappers {
		m[0] += mt.InRecords
		m[1] += mt.PreCombineRecords
	}
	return m, r.SimSeconds
}

// TestSimSecondsMonotone: on the cost model, a round's simulated time
// never decreases as one of the quantities it is charged by grows — map input
// records, emitted records, shuffle bytes, spilled bytes, output records —
// with the other four held fixed, and a leg that grows its quantity costs
// more at its end than at its start.
func TestSimSecondsMonotone(t *testing.T) {
	base := costShape{emitting: 40, emits: 1, outs: 1}
	legs := [len(costMeasureNames)]func(step int) costShape{
		func(step int) costShape { s := base; s.idle = 30 * step; return s },
		// The combiner folds the emits back to one record per word and task.
		func(step int) costShape { s := base; s.emits, s.combine = 1+step, true; return s },
		func(step int) costShape { s := base; s.pad = 40 * step; return s },
		func(step int) costShape { s := base; s.budget = int64(960>>step) * int64(min(step, 1)); return s },
		func(step int) costShape { s := base; s.outs = 1 + 2*step; return s },
	}
	for grown, shape := range legs {
		name := costMeasureNames[grown]
		var first, prev costMeasures
		var firstSim, prevSim float64
		for step := 0; step < 5; step++ {
			m, sim := costRound(t, shape(step))
			if step == 0 {
				first, firstSim = m, sim
			} else {
				for i := range m {
					if i == grown && m[i] <= prev[i] || i != grown && m[i] != first[i] {
						t.Fatalf("%s, step %d: measures %v after %v (%v): not %s alone growing", name, step, m, prev, costMeasureNames, name)
					}
				}
				if sim < prevSim {
					t.Errorf("%s, step %d: %v simulated s, below the step before's %v", name, step, sim, prevSim)
				}
			}
			prev, prevSim = m, sim
		}
		if prevSim <= firstSim {
			t.Errorf("%s: %v simulated s at the last step, not above the first's %v", name, prevSim, firstSim)
		}
	}
}

// TestSimTimeIgnoresChargeOrder: simulated time is a function of a task's
// counters, not of the order or the grouping of the calls that counted
// them. Two jobs count the same ops and emits — one charges n ops in one
// call before each emit, the other one op at a time after it — and report
// the same task and round metrics, bit for bit.
func TestSimTimeIgnoresChargeOrder(t *testing.T) {
	const n = 1000
	chargeAround := func(batched bool, charge func(int64), emit func()) {
		if batched {
			charge(n)
			emit()
			return
		}
		emit()
		for range n {
			charge(1)
		}
	}
	run := func(batched bool) RoundMetrics {
		job := &Job{
			Name: "charges",
			MapTuple: func(ctx *MapCtx, tu relation.Tuple) {
				chargeAround(batched, ctx.ChargeOps, func() { ctx.Emit(fmt.Sprint(tu.Dims[0]), []byte{1}) })
			},
			Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
				for range vals {
					chargeAround(batched, ctx.ChargeOps, func() { ctx.EmitKV(key, nil) })
				}
			},
		}
		tuples := make([]relation.Tuple, 60)
		for i := range tuples {
			tuples[i].Dims = []relation.Value{relation.Value(i % 7)}
		}
		res, err := New(Config{Workers: 3}, dfs.New(true)).RunTuples(job, tuples)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		m.WallSeconds = 0
		for _, tasks := range [][]TaskMetrics{m.Mappers, m.Reducers} {
			for i := range tasks {
				tasks[i].WallSeconds = 0
			}
		}
		return m
	}
	got, want := run(false), run(true)
	for i := range want.Mappers {
		if g, w := got.Mappers[i].CPUSeconds, want.Mappers[i].CPUSeconds; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("mapper %d: %v CPU seconds charged one op at a time, %v in one call", i, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round metrics differ:\none at a time %+v\nin one call   %+v", got, want)
	}
}
