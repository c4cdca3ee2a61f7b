package mr_test

// Hot-path benchmarks of the engine's data plane, written against the
// public API only so that `make bench-compare` can copy this file into a
// worktree of an older commit and run the identical workload there —
// benchstat then compares old vs new on equal terms.
//
// BenchmarkEngineHotPath is the end-to-end number of the engine alone:
// the naive cube — the pure
// engine stressor, n·2^d intermediate records with no mapper-side
// aggregation to hide behind — over a fig6-style skewed gen-binomial
// relation. It exercises every stage the sort-merge shuffle rebuilt:
// per-emit partitioning, map-side bucket sort, the run hand-off, and the
// reducer's k-way merge.

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// BenchmarkEngineHotPath runs the naive cube end to end on the fig6-style
// skewed workload (gen-binomial, d=4, p=0.4): 8000 tuples × 16 cuboids =
// 128k intermediate records per iteration through emit, partition, shuffle
// and reduce.
func BenchmarkEngineHotPath(b *testing.B) {
	rel := data.GenBinomial(8000, 4, 0.4, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 8, Seed: 42, Parallelism: 1}, nil)
		run, err := naive.Compute(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			b.Fatal(err)
		}
		// Summed by hand: `make bench-compare` copies this file into the
		// BASE tree, so it may only use API both commits have.
		var recs int64
		for j := range run.Metrics.Rounds {
			recs += run.Metrics.Rounds[j].ShuffleRecords
		}
		if recs != int64(rel.N())*16 {
			b.Fatalf("shuffle records = %d, want %d", recs, rel.N()*16)
		}
	}
	b.ReportMetric(float64(rel.N())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkEngineHotPathParallel is the same workload with the worker pool
// on, to catch contention regressions in the shared hot paths.
func BenchmarkEngineHotPathParallel(b *testing.B) {
	rel := data.GenBinomial(8000, 4, 0.4, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 8, Seed: 42, Parallelism: 8}, nil)
		if _, err := naive.Compute(eng, rel, cube.Spec{Agg: agg.Count}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpillRound is one engine round shaped like SP-Cube's spilling
// skewed batch: 60000 gen-binomial tuples each emit six 7-byte group-shaped
// keys ('G', a mask, five one-byte values) with 30-byte values, 360k records
// through a 1 MiB spill budget, the lz codec and 9 reducers. It times the
// map-side bucket sort, the spill flushes, and the reducers' merge and copies
// out of the run files.
func BenchmarkSpillRound(b *testing.B) {
	const n = 60000
	rel := data.GenBinomial(n, 6, 0.5, 31)
	job := &mr.Job{
		Name:      "spill-round",
		Reducers:  9,
		TaskState: func() any { return new([2][]byte) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			buf := ctx.State().(*[2][]byte)
			val := buf[1][:0]
			h := uint64(t.Measure)*0x9e3779b97f4a7c15 + uint64(t.Dims[0])
			for len(val) < 30 {
				h ^= h << 13
				h ^= h >> 7
				h ^= h << 17
				val = append(val, byte(h))
			}
			for skip := 0; skip < 6; skip++ {
				key := append(buf[0][:0], 'G', byte(0x3f&^(1<<skip)))
				for i, v := range t.Dims {
					if i != skip {
						key = append(key, byte(v&0x7f))
					}
				}
				ctx.EmitBytes(key, val)
				buf[0] = key
			}
			buf[1] = val
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) { ctx.ChargeOps(int64(len(vals))) },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 8, Seed: 42, Parallelism: 1,
			SpillBudgetBytes: 1 << 20, SpillCodec: "lz", SpillDir: b.TempDir()}, nil)
		res, err := eng.RunTuples(job, rel.Tuples)
		if err != nil {
			b.Fatal(err)
		}
		if m := res.Metrics; m.Spills == 0 || m.ShuffleRecords != 6*n {
			b.Fatalf("%d spills, %d shuffle records; want some spills and %d records", m.Spills, m.ShuffleRecords, 6*n)
		}
	}
	b.ReportMetric(6*n*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSmallAttempts is a round of map attempts the size of SP-Cube's
// sketch round's: 20 map tasks that emit 20 keyed records each through
// EmitBytes, to one reducer. It times what a round costs when its attempts
// emit little, the first chunks of their buffers included.
func BenchmarkSmallAttempts(b *testing.B) {
	tuples := make([]relation.Tuple, 400)
	for i := range tuples {
		tuples[i] = relation.Tuple{Dims: []relation.Value{relation.Value(i)}, Measure: int64(i)}
	}
	job := &mr.Job{
		Name:      "small-attempts",
		Reducers:  1,
		TaskState: func() any { return new([]byte) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			buf := ctx.State().(*[]byte)
			*buf = append((*buf)[:0], 'S', byte(t.Dims[0]), byte(t.Dims[0]>>8), 0, 0, 0, 0, 0)
			ctx.EmitBytes(*buf, (*buf)[1:])
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) { ctx.ChargeOps(int64(len(vals))) },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 20, Seed: 42, Parallelism: 1}, nil)
		res, err := eng.RunTuples(job, tuples)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.ShuffleRecords != int64(len(tuples)) {
			b.Fatalf("%d shuffle records, want %d", res.Metrics.ShuffleRecords, len(tuples))
		}
	}
}

// BenchmarkReduceEmit is one round whose reducers write many small records
// to a retaining DFS, as SP-Cube's BUC reducers do: 20000 tuples in 2000
// groups, and each group's reduce writes 64 records of its 4-byte key and an
// 8-byte value, 128k output records per iteration through 8 reducers. It
// times the reduce output path — EmitKV, the output file and its commit —
// and its allocs/op count what that path allocates per record.
func BenchmarkReduceEmit(b *testing.B) {
	const n, groups, perGroup = 20000, 2000, 64
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Dims: []relation.Value{relation.Value(i % groups)}, Measure: int64(i)}
	}
	job := &mr.Job{
		Name:      "reduce-emit",
		Reducers:  8,
		TaskState: func() any { return new([]byte) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			buf := ctx.State().(*[]byte)
			v := uint32(t.Dims[0])
			*buf = append((*buf)[:0], byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			ctx.EmitBytes(*buf, (*buf)[2:])
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			buf := ctx.State().(*[]byte)
			for j := 0; j < perGroup; j++ {
				*buf = append((*buf)[:0], byte(j), byte(len(vals)), key[2], key[3], 0, 0, 0, 1)
				ctx.EmitKV(key, *buf)
			}
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 8, Seed: 42, Parallelism: 1}, dfs.New(false))
		res, err := eng.RunTuples(job, tuples)
		if err != nil {
			b.Fatal(err)
		}
		if recs := eng.FS.TotalRecords(""); recs != groups*perGroup || res.Metrics.OutputRecords != recs {
			b.Fatalf("%d output records, want %d", recs, groups*perGroup)
		}
	}
	b.ReportMetric(groups*perGroup*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkShuffleRetained is one round of 200,640 records emitted through
// EmitBytes, wiki-sized: a 10-byte key and a 6-byte value each. At the
// shuffle hand-off — the first Reduce call, when every map task's output is
// live and none is consumed — it collects garbage and reports the live heap
// the round added per record (live-B/record) and what of it is not record
// bytes (over-B/record). 16-byte records fill 1 KiB-to-64 KiB chunks
// exactly at this count, so no unused chunk tail hides in the figure.
func BenchmarkShuffleRetained(b *testing.B) {
	const records, keyLen, valLen = 200640, 10, 6
	input := make([]mr.Pair, records)
	for i := range input {
		input[i] = mr.Pair{Key: fmt.Sprintf("k%09d", i*7919%records), Val: []byte(fmt.Sprintf("%06x", i))}
	}
	var base, live uint64
	measured := false
	job := &mr.Job{
		Name:      "shuffle-retained",
		Reducers:  4,
		TaskState: func() any { return new([]byte) },
		MapPair: func(ctx *mr.MapCtx, key string, val []byte) {
			buf := ctx.State().(*[]byte)
			*buf = append((*buf)[:0], key...)
			ctx.EmitBytes(*buf, val)
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			if !measured {
				measured = true
				live = liveHeap() - base
			}
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 1, Seed: 42, Parallelism: 1}, nil)
		measured = false
		base = liveHeap()
		res, err := eng.RunPairs(job, input)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.ShuffleRecords != records {
			b.Fatalf("%d shuffle records, want %d", res.Metrics.ShuffleRecords, records)
		}
	}
	b.ReportMetric(float64(live)/records, "live-B/record")
	b.ReportMetric(float64(live)/records-(keyLen+valLen), "over-B/record")
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkHashPartition measures the default partitioner on a realistic
// encoded-group-key mix. The acceptance bar is 0 allocs/op.
func BenchmarkHashPartition(b *testing.B) {
	keys := make([]string, 0, 64)
	rel := data.GenBinomial(64, 4, 0.4, 7)
	for _, t := range rel.Tuples[:64] {
		keys = append(keys, string(append([]byte{byte('G')}, encodeDims(t.Dims)...)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += mr.HashPartition(42, keys[i&63], 21)
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// encodeDims is a tiny stand-in for a group-key payload (this file must
// stay self-contained enough to compile against older trees).
func encodeDims(dims []relation.Value) []byte {
	out := make([]byte, 0, len(dims)*2)
	for _, v := range dims {
		out = append(out, byte(v), byte(v>>8))
	}
	return out
}
