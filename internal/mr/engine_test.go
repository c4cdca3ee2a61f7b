package mr

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

func tuplesFromWords(words []string) ([]relation.Tuple, map[string]int32) {
	dict := make(map[string]int32)
	var tuples []relation.Tuple
	for _, w := range words {
		code, ok := dict[w]
		if !ok {
			code = int32(len(dict))
			dict[w] = code
		}
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{code}, Measure: 1})
	}
	return tuples, dict
}

// wordCountJob counts occurrences of each word code. The shared counts map
// is guarded: reduce tasks may run concurrently.
func wordCountJob(counts map[string]int64) *Job {
	var mu sync.Mutex
	return &Job{
		Name: "wordcount",
		MapTuple: func(ctx *MapCtx, t relation.Tuple) {
			key := fmt.Sprintf("w%d", t.Dims[0])
			ctx.Emit(key, []byte{1})
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			mu.Lock()
			counts[key] += int64(len(vals))
			mu.Unlock()
			ctx.EmitKV(key, binary.AppendVarint(nil, int64(len(vals))))
		},
	}
}

func TestWordCount(t *testing.T) {
	words := strings.Fields("a b a c a b d a e a b c")
	tuples, dict := tuplesFromWords(words)
	counts := make(map[string]int64)
	eng := New(Config{Workers: 3}, dfs.New(false))
	res, err := eng.RunTuples(wordCountJob(counts), tuples)
	if err != nil {
		t.Fatal(err)
	}
	if counts[fmt.Sprintf("w%d", dict["a"])] != 5 {
		t.Errorf("count(a) = %d", counts[fmt.Sprintf("w%d", dict["a"])])
	}
	if res.Metrics.ShuffleRecords != int64(len(words)) {
		t.Errorf("shuffle records %d, want %d", res.Metrics.ShuffleRecords, len(words))
	}
	if res.Metrics.OutputRecords != int64(len(dict)) {
		t.Errorf("output records %d, want %d", res.Metrics.OutputRecords, len(dict))
	}
	if res.Metrics.SimSeconds <= 0 || res.Metrics.WallSeconds < 0 {
		t.Error("times must be populated")
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	words := strings.Fields(strings.Repeat("x y ", 500))
	tuples, _ := tuplesFromWords(words)
	run := func(withCombiner bool) int64 {
		counts := make(map[string]int64)
		var mu sync.Mutex
		job := wordCountJob(counts)
		job.Reduce = func(ctx *RedCtx, key string, vals [][]byte) {
			var total int64
			for _, v := range vals {
				total += int64(v[0])
			}
			mu.Lock()
			counts[key] += total
			mu.Unlock()
			ctx.EmitKV(key, binary.AppendVarint(nil, total))
		}
		if withCombiner {
			job.Combine = func(key string, vals [][]byte) [][]byte {
				var total byte
				for _, v := range vals {
					total += v[0]
				}
				return [][]byte{{total}}
			}
		}
		eng := New(Config{Workers: 4}, nil)
		res, err := eng.RunTuples(job, tuples)
		if err != nil {
			t.Fatal(err)
		}
		// With the byte-sized toy combiner the count wraps; only the
		// shuffle accounting matters here.
		return res.Metrics.ShuffleRecords
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("combiner did not reduce shuffle: %d vs %d", with, without)
	}
	if with != 8 { // 4 mappers × 2 keys
		t.Errorf("combined shuffle = %d, want 8", with)
	}
	// Pre-combine accounting must still reflect the raw emits.
	// (verified indirectly by 'without' equaling the word count)
	if without != 1000 {
		t.Errorf("raw shuffle = %d, want 1000", without)
	}
}

func TestPartitionerRouting(t *testing.T) {
	tuples, _ := tuplesFromWords(strings.Fields("a b c d e f g h"))
	var reducerKeys [2][]string
	job := &Job{
		Name:     "routing",
		Reducers: 2,
		MapTuple: func(ctx *MapCtx, t relation.Tuple) {
			ctx.Emit(fmt.Sprintf("w%d", t.Dims[0]), nil)
		},
		Partition: func(key string, r int) int {
			if key == "w0" {
				return 0
			}
			return 1
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			reducerKeys[ctx.Task] = append(reducerKeys[ctx.Task], key)
		},
	}
	eng := New(Config{Workers: 2}, nil)
	if _, err := eng.RunTuples(job, tuples); err != nil {
		t.Fatal(err)
	}
	if len(reducerKeys[0]) != 1 || reducerKeys[0][0] != "w0" {
		t.Errorf("reducer 0 got %v", reducerKeys[0])
	}
	if len(reducerKeys[1]) != 7 {
		t.Errorf("reducer 1 got %v", reducerKeys[1])
	}
}

func TestPartitionOutOfRangeFails(t *testing.T) {
	tuples, _ := tuplesFromWords([]string{"a"})
	job := &Job{
		Name:      "bad",
		MapTuple:  func(ctx *MapCtx, t relation.Tuple) { ctx.Emit("k", nil) },
		Partition: func(string, int) int { return 99 },
		Reduce:    func(*RedCtx, string, [][]byte) {},
	}
	eng := New(Config{Workers: 1}, nil)
	if _, err := eng.RunTuples(job, tuples); err == nil {
		t.Fatal("expected partition range error")
	}
}

func TestReducerOOM(t *testing.T) {
	// One giant key overloads one reducer; with FailOnReducerOOM the round
	// must fail and report the reducer.
	var tuples []relation.Tuple
	for i := 0; i < 5000; i++ {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{1}, Measure: 1})
	}
	job := &Job{
		Name: "oom",
		MapTuple: func(ctx *MapCtx, t relation.Tuple) {
			ctx.Emit("hot", []byte("0123456789abcdef"))
		},
		Reduce:           func(*RedCtx, string, [][]byte) {},
		FailOnReducerOOM: true,
		MemInflation:     8,
	}
	eng := New(Config{Workers: 4, OOMFactor: 2}, nil)
	res, err := eng.RunTuples(job, tuples)
	if err == nil {
		t.Fatal("expected OOM failure")
	}
	if !res.Metrics.Failed || !strings.Contains(res.Metrics.FailReason, "out of memory") {
		t.Errorf("metrics should record the failure: %+v", res.Metrics.FailReason)
	}
	// Without the flag the same job must succeed, paying spill time.
	job.FailOnReducerOOM = false
	res, err = eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var spill int64
	for _, r := range res.Metrics.Reducers {
		spill += r.SpillBytes
	}
	if spill == 0 {
		t.Error("expected spill accounting for oversized reducer input")
	}
}

func TestRunPairsChaining(t *testing.T) {
	// Round 1 emits partial sums as side output; round 2 consumes them.
	tuples, _ := tuplesFromWords(strings.Fields("a a b b b c"))
	first := &Job{
		Name:          "r1",
		CollectOutput: true,
		MapTuple: func(ctx *MapCtx, t relation.Tuple) {
			ctx.Emit(fmt.Sprintf("w%d", t.Dims[0]), []byte{1})
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			ctx.EmitSide(key, []byte{byte(len(vals))})
		},
	}
	eng := New(Config{Workers: 2}, nil)
	res1, err := eng.RunTuples(first, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Output) == 0 {
		t.Fatal("no side output collected")
	}
	got := make(map[string]int)
	var mu sync.Mutex
	second := &Job{
		Name:    "r2",
		MapPair: func(ctx *MapCtx, key string, val []byte) { ctx.Emit(key, val) },
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			total := 0
			for _, v := range vals {
				total += int(v[0])
			}
			mu.Lock()
			got[key] = total
			mu.Unlock()
		},
	}
	if _, err := eng.RunPairs(second, res1.Output); err != nil {
		t.Fatal(err)
	}
	if got["w0"] != 2 || got["w1"] != 3 || got["w2"] != 1 {
		t.Errorf("chained counts: %v", got)
	}
}

func TestMemTuples(t *testing.T) {
	eng := New(Config{Workers: 4}, nil)
	if m := eng.MemTuples(1000); m != 250 {
		t.Errorf("m = %d, want n/k = 250", m)
	}
	eng = New(Config{Workers: 4, MemTuples: 42}, nil)
	if m := eng.MemTuples(1000); m != 42 {
		t.Errorf("explicit m = %d", m)
	}
	eng = New(Config{Workers: 8}, nil)
	if m := eng.MemTuples(3); m != 1 {
		t.Errorf("tiny input m = %d, want 1", m)
	}
}

func TestMetricsAggregation(t *testing.T) {
	var jm JobMetrics
	jm.Add(RoundMetrics{
		Totals:  Totals{ShuffleBytes: 100, ShuffleRecords: 10, SimSeconds: 2, MapTimeAvg: 1, ReduceTimeAvg: 3},
		Mappers: []TaskMetrics{{CPUSeconds: 1, Attempts: 1}}, Reducers: []TaskMetrics{{CPUSeconds: 3, Attempts: 1}},
		MappersExecuted: 1, ReducersExecuted: 1})
	jm.Add(RoundMetrics{Totals: Totals{ShuffleBytes: 50, ShuffleRecords: 5, SimSeconds: 1, Failed: true, FailReason: "x"}})
	tot := jm.Totals()
	if tot.ShuffleBytes != 150 || tot.ShuffleRecords != 15 {
		t.Error("shuffle totals wrong")
	}
	if tot.SimSeconds != 3 {
		t.Error("sim total wrong")
	}
	if !tot.Failed || tot.FailReason != "x" {
		t.Error("failure not surfaced")
	}
	if tot.MapTimeAvg != 1 || tot.ReduceTimeAvg != 3 {
		t.Error("phase averages wrong")
	}
	if !strings.Contains(jm.String(), "FAILED") {
		t.Error("String must mention failures")
	}
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		p1 := HashPartition(7, key, 13)
		p2 := HashPartition(7, key, 13)
		if p1 != p2 {
			t.Fatal("hash partition unstable")
		}
		if p1 < 0 || p1 >= 13 {
			t.Fatalf("partition %d out of range", p1)
		}
	}
	if HashPartition(1, "x", 4) == HashPartition(2, "x", 4) &&
		HashPartition(1, "y", 4) == HashPartition(2, "y", 4) &&
		HashPartition(1, "z", 4) == HashPartition(2, "z", 4) &&
		HashPartition(1, "w", 4) == HashPartition(2, "w", 4) {
		t.Error("seed does not influence partitioning")
	}
}

func TestSplitCoversInput(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, k := range []int{1, 3, 8} {
			covered := 0
			prevHi := 0
			for i := 0; i < k; i++ {
				lo, hi := split(n, k, i)
				if lo != prevHi {
					t.Fatalf("n=%d k=%d: split %d starts at %d, want %d", n, k, i, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d k=%d: covered %d", n, k, covered)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	words := strings.Fields(strings.Repeat("a b c d e ", 100))
	tuples, _ := tuplesFromWords(words)
	var sums [2]uint64
	for round := range sums {
		fs := dfs.New(true)
		eng := New(Config{Workers: 3, Seed: 99}, fs)
		counts := make(map[string]int64)
		if _, err := eng.RunTuples(wordCountJob(counts), tuples); err != nil {
			t.Fatal(err)
		}
		sums[round] = fs.TotalChecksum("out/wordcount/")
	}
	if sums[0] != sums[1] {
		t.Error("engine output not deterministic")
	}
}

func TestCPUFactorsScaleTaskTime(t *testing.T) {
	tuples, _ := tuplesFromWords(strings.Fields(strings.Repeat("a b c d ", 200)))
	run := func(mapF, redF float64) (float64, float64) {
		counts := make(map[string]int64)
		job := wordCountJob(counts)
		job.MapCPUFactor = mapF
		job.ReduceCPUFactor = redF
		eng := New(Config{Workers: 4}, nil)
		res, err := eng.RunTuples(job, tuples)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.MapTimeAvg, res.Metrics.ReduceTimeAvg
	}
	m1, r1 := run(0, 0) // defaults: factor 1
	m2, r2 := run(2, 3)
	if m2 < 1.9*m1 || m2 > 2.1*m1 {
		t.Errorf("map factor 2: %v vs %v", m2, m1)
	}
	if r2 < 2.9*r1 || r2 > 3.1*r1 {
		t.Errorf("reduce factor 3: %v vs %v", r2, r1)
	}
}

func TestEmitSideAccounting(t *testing.T) {
	tuples, _ := tuplesFromWords(strings.Fields("a b c"))
	job := &Job{
		Name:          "side",
		CollectOutput: true,
		MapTuple: func(ctx *MapCtx, tu relation.Tuple) {
			ctx.Emit(fmt.Sprintf("w%d", tu.Dims[0]), nil)
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			ctx.EmitKV(key, []byte("final"))
			ctx.EmitSide(key, []byte("partial"))
		},
	}
	eng := New(Config{Workers: 2}, dfs.New(false))
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var side, out int64
	for _, r := range res.Metrics.Reducers {
		side += r.SideRecords
		out += r.OutRecords
	}
	if side != 3 || out != 3 {
		t.Errorf("side=%d out=%d, want 3/3", side, out)
	}
	if len(res.Output) != 3 {
		t.Errorf("collected %d side pairs", len(res.Output))
	}
	// Side output lands under side/<job>/, not in the primary output.
	if eng.FS.TotalRecords("out/side/") != 3 {
		t.Error("primary output records wrong")
	}
	if eng.FS.TotalRecords("side/side/") != 3 {
		t.Error("side output records wrong")
	}
}

func TestRunRequiresMatchingMapper(t *testing.T) {
	eng := New(Config{Workers: 2}, nil)
	if _, err := eng.RunTuples(&Job{Name: "x", MapPair: func(*MapCtx, string, []byte) {}}, nil); err == nil {
		t.Error("RunTuples without MapTuple must fail")
	}
	if _, err := eng.RunPairs(&Job{Name: "x", MapTuple: func(*MapCtx, relation.Tuple) {}}, nil); err == nil {
		t.Error("RunPairs without MapPair must fail")
	}
}
