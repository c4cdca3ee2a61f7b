package delta_test

// BenchmarkDeltaNew times what a server does between loading its input and
// building its index: delta.New — the full cube job (two of them when the
// aggregate is not count), the collection of its output and the base sketch —
// over the served relations of the three harness workloads.
// BenchmarkDeltaApply times what one ingest cycle adds to it: a delta job over
// a harness-sized batch, merged into the maintained state. Both use only API
// older commits have (delta.New, delta.Config's Algorithm, Agg, MinSup,
// Workers and Seed, Maintainer.Apply), so `make bench-compare` can copy this
// file into a checkout of one and run the identical workload there.

import (
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/relation"
)

func BenchmarkDeltaNew(b *testing.B) {
	for _, bc := range []struct {
		name   string
		rel    func() *relation.Relation
		fn     agg.Func
		minSup int
	}{
		// full_uniform's serve input: 870 k groups, all published.
		{"uniform58k", func() *relation.Relation { return data.Uniform(58000, 4, 1<<30, 1) }, agg.Count, 0},
		// iceberg_skew_spill's: ≈ 1.2 M maintained groups behind 1,261
		// published ones.
		{"binomial38k", func() *relation.Relation { return data.GenBinomial(38000, 6, 0.5, 1) }, agg.Count, 10},
		// wiki_serve_ingest's, and the same under sum: two jobs, and a run of
		// counts beside the run of values.
		{"wiki125k", func() *relation.Relation { return data.WikiTraffic(125000, 1) }, agg.Count, 0},
		{"wiki125k_sum", func() *relation.Relation { return data.WikiTraffic(125000, 1) }, agg.Sum, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rel := bc.rel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := delta.New(rel, delta.Config{Algorithm: "sp-cube", Agg: bc.fn, MinSup: bc.minSup, Workers: 8, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if m.N() != rel.N() {
					b.Fatalf("maintainer holds %d tuples, want %d", m.N(), rel.N())
				}
			}
		})
	}
}

// BenchmarkDeltaApply appends harness-sized batches, one per iteration, to a
// maintainer of the served prefix of a relation; the rows behind the prefix
// are the batches, as in the harness. When they run out the maintainer is
// rebuilt off the clock.
func BenchmarkDeltaApply(b *testing.B) {
	for _, bc := range []struct {
		name          string
		rel           func() *relation.Relation
		served, batch int
		minSup        int
	}{
		{"uniform58k_300", func() *relation.Relation { return data.Uniform(80000, 4, 1<<30, 1) }, 58000, 300, 0},
		{"binomial38k_200", func() *relation.Relation { return data.GenBinomial(50000, 6, 0.5, 1) }, 38000, 200, 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			all := bc.rel()
			var m *delta.Maintainer
			var pool []relation.Tuple
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(pool) < bc.batch {
					b.StopTimer()
					var err error
					served := &relation.Relation{Schema: all.Schema, Dict: all.Dict, Tuples: all.Tuples[:bc.served]}
					if m, err = delta.New(served, delta.Config{Algorithm: "sp-cube", Agg: agg.Count, MinSup: bc.minSup, Workers: 8, Seed: 1}); err != nil {
						b.Fatal(err)
					}
					pool = all.Tuples[bc.served:]
					b.StartTimer()
				}
				rnd, err := m.Apply(delta.Batch{Append: pool[:bc.batch]})
				if err != nil || rnd.Mode != "delta" {
					b.Fatalf("cycle %d: %+v, %v", i, rnd, err)
				}
				pool = pool[bc.batch:]
			}
		})
	}
}
