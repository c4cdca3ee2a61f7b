package mr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

// stripWall returns a deep copy of the metrics with every real wall-clock
// field zeroed: wall time is the one quantity that legitimately differs
// between runs (and between parallelism levels).
func stripWall(rm RoundMetrics) RoundMetrics {
	out := rm
	out.WallSeconds = 0
	out.Mappers = append([]TaskMetrics(nil), rm.Mappers...)
	out.Reducers = append([]TaskMetrics(nil), rm.Reducers...)
	for i := range out.Mappers {
		out.Mappers[i].WallSeconds = 0
	}
	for i := range out.Reducers {
		out.Reducers[i].WallSeconds = 0
	}
	return out
}

// runWordCount executes the word-count job at the given parallelism and
// returns the round metrics, the collected side output, and the output
// checksum.
func runWordCount(t *testing.T, parallelism int) (RoundMetrics, []Pair, uint64) {
	t.Helper()
	words := strings.Fields(strings.Repeat("a b c d e f g a b a ", 200))
	tuples, _ := tuplesFromWords(words)
	counts := make(map[string]int64)
	job := wordCountJob(counts)
	job.OutputPrefix = "out/wordcount/"
	job.Combine = func(key string, vals [][]byte) [][]byte {
		var total byte
		for _, v := range vals {
			total += v[0]
		}
		return [][]byte{{total}}
	}
	var mu sync.Mutex
	job.Reduce = func(ctx *RedCtx, key string, vals [][]byte) {
		var total int64
		for _, v := range vals {
			total += int64(v[0])
		}
		mu.Lock()
		counts[key] += total
		mu.Unlock()
		ctx.EmitKV(key, binary.AppendVarint(nil, total))
		ctx.EmitSide(key, []byte{byte(total)})
	}
	fs := dfs.New(true)
	eng := New(Config{Workers: 5, Seed: 7, Parallelism: parallelism}, fs)
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return res.Metrics, res.Output, fs.TotalChecksum("out/wordcount/")
}

// TestParallelMatchesSequential is the engine-level determinism guarantee:
// parallelism 1 and parallelism 8 produce identical metrics, identical
// collected output in identical order, and identical DFS output.
func TestParallelMatchesSequential(t *testing.T) {
	seqM, seqOut, seqSum := runWordCount(t, 1)
	parM, parOut, parSum := runWordCount(t, 8)
	if seqSum != parSum {
		t.Errorf("output checksum differs: sequential %x, parallel %x", seqSum, parSum)
	}
	if a, b := fmt.Sprintf("%+v", stripWall(seqM)), fmt.Sprintf("%+v", stripWall(parM)); a != b {
		t.Errorf("metrics differ:\nsequential: %s\nparallel:   %s", a, b)
	}
	if len(seqOut) != len(parOut) {
		t.Fatalf("collected output length differs: %d vs %d", len(seqOut), len(parOut))
	}
	for i := range seqOut {
		if seqOut[i].Key != parOut[i].Key || string(seqOut[i].Val) != string(parOut[i].Val) {
			t.Fatalf("collected output diverges at %d: %+v vs %+v", i, seqOut[i], parOut[i])
		}
	}
}

// TestTaskStateIsPerTask verifies the engine hands every map and reduce
// task its own TaskState value.
func TestTaskStateIsPerTask(t *testing.T) {
	tuples, _ := tuplesFromWords(strings.Fields("a b c d e f g h"))
	type state struct{ task int }
	var mu sync.Mutex
	seen := make(map[*state]bool)
	record := func(s *state) {
		mu.Lock()
		seen[s] = true
		mu.Unlock()
	}
	job := &Job{
		Name:      "state",
		TaskState: func() any { return new(state) },
		MapTuple: func(ctx *MapCtx, tu relation.Tuple) {
			s := ctx.State().(*state)
			if s.task != 0 && s.task != ctx.Task+1 {
				t.Errorf("map task %d saw state of task %d", ctx.Task, s.task-1)
			}
			s.task = ctx.Task + 1
			record(s)
			ctx.Emit(fmt.Sprintf("w%d", tu.Dims[0]), nil)
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			s := ctx.State().(*state)
			if s.task != 0 && s.task != ctx.Task+1 {
				t.Errorf("reduce task %d saw state of task %d", ctx.Task, s.task-1)
			}
			s.task = ctx.Task + 1
			record(s)
		},
	}
	eng := New(Config{Workers: 4, Parallelism: 8}, nil)
	if _, err := eng.RunTuples(job, tuples); err != nil {
		t.Fatal(err)
	}
	// 4 map states plus up to 4 reduce states (reducers without input
	// still run their task body and get state).
	if len(seen) < 5 {
		t.Errorf("expected distinct per-task states, saw %d", len(seen))
	}
}

// TestParallelOOMMatchesSequential checks the first-failure semantics
// survive parallel execution: the same reducer fails, with the same
// metrics on the completed reducers.
func TestParallelOOMMatchesSequential(t *testing.T) {
	var tuples []relation.Tuple
	for i := 0; i < 5000; i++ {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{relation.Value(i % 7)}, Measure: 1})
	}
	run := func(parallelism int) (RoundMetrics, string) {
		job := &Job{
			Name: "oom",
			MapTuple: func(ctx *MapCtx, t relation.Tuple) {
				if t.Dims[0] == 3 {
					ctx.Emit("hot", []byte("0123456789abcdef"))
				} else {
					ctx.Emit(fmt.Sprintf("w%d", t.Dims[0]), nil)
				}
			},
			Reduce:           func(*RedCtx, string, [][]byte) {},
			FailOnReducerOOM: true,
			MemInflation:     192, // OOM past OOMFactor/192 = a quarter memory-ful of records
		}
		eng := New(Config{Workers: 4, Seed: 3, Parallelism: parallelism}, nil)
		res, err := eng.RunTuples(job, tuples)
		if err == nil {
			t.Fatal("expected OOM failure")
		}
		return res.Metrics, err.Error()
	}
	seqM, seqErr := run(1)
	parM, parErr := run(8)
	if seqErr != parErr {
		t.Errorf("error differs:\nsequential: %s\nparallel:   %s", seqErr, parErr)
	}
	if a, b := fmt.Sprintf("%+v", stripWall(seqM)), fmt.Sprintf("%+v", stripWall(parM)); a != b {
		t.Errorf("failure metrics differ:\nsequential: %s\nparallel:   %s", a, b)
	}
}

// BenchmarkEngineParallel compares real wall-clock of a CPU-heavy round at
// parallelism 1 against all cores, on a 10^5-tuple input. On a multi-core
// machine the parallel sub-benchmark should run ≥2× faster at 8 cores.
func BenchmarkEngineParallel(b *testing.B) {
	const n = 100_000
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Dims: []relation.Value{relation.Value(i % 997)}, Measure: int64(i)}
	}
	job := func() *Job {
		return &Job{
			Name: "spin",
			MapTuple: func(ctx *MapCtx, t relation.Tuple) {
				// Simulated per-record CPU work: a few hundred hash
				// rounds, standing in for lattice walks.
				h := fnv.New64a()
				var buf [8]byte
				v := uint64(t.Measure)
				for i := 0; i < 200; i++ {
					binary.LittleEndian.PutUint64(buf[:], v)
					h.Write(buf[:])
					v = h.Sum64()
				}
				ctx.Emit(fmt.Sprintf("g%d", t.Dims[0]), binary.AppendUvarint(nil, v))
			},
			Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
				var sum uint64
				for _, v := range vals {
					u, _ := binary.Uvarint(v)
					sum += u
				}
				ctx.EmitKV(key, binary.AppendUvarint(nil, sum))
			},
		}
	}
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			eng := New(Config{Workers: 8, Seed: 1, Parallelism: p}, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunTuples(job(), tuples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
