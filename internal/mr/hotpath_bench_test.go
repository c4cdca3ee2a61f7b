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
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
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
