package delta_test

// BenchmarkDeltaNew times what a server does between loading its input and
// building its index: delta.New — the full cube job, the state map and the
// base sketch — over the served relations of two harness workloads. It uses
// only API older commits have (delta.New, delta.Config's Algorithm, Agg,
// MinSup, Workers and Seed), so `make bench-compare` can copy this file into
// a checkout of one and run the identical workload there.

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
		minSup int
	}{
		// iceberg_skew_spill's serve input: ≈ 1.2 M maintained groups behind
		// 1,261 published ones.
		{"binomial38k", func() *relation.Relation { return data.GenBinomial(38000, 6, 0.5, 1) }, 10},
		// wiki_serve_ingest's.
		{"wiki125k", func() *relation.Relation { return data.WikiTraffic(125000, 1) }, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rel := bc.rel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := delta.New(rel, delta.Config{Algorithm: "sp-cube", Agg: agg.Count, MinSup: bc.minSup, Workers: 8, Seed: 1})
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
