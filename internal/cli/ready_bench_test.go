package cli_test

// BenchmarkServeReady times a server's start-up behind the CSV load: the
// relation goes through delta.New and the maintained cube into a served
// Store, over the served relations of the three harness workloads. The store
// is built by serve.BuildRun over the maintainer's published walk, line for
// line what spserve's start runs, which older commits have too, so `make
// bench-compare` can copy this file into a checkout of one and run the
// identical workload there. live-MB is the heap the last start-up leaves in
// use, maintainer and store alive, measured after a collection.

import (
	"runtime"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

func BenchmarkServeReady(b *testing.B) {
	for _, bc := range []struct {
		name   string
		rel    func() *relation.Relation
		minSup int
		groups int // served
	}{
		{"uniform58k", func() *relation.Relation { return data.Uniform(58000, 4, 1<<30, 1) }, 0, 869996},
		{"binomial38k", func() *relation.Relation { return data.GenBinomial(38000, 6, 0.5, 1) }, 10, 1261},
		{"wiki125k", func() *relation.Relation { return data.WikiTraffic(125000, 1) }, 0, 559384},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rel := bc.rel()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var m *delta.Maintainer
			var st *serve.Store
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, st = nil, nil // the last start-up's are not alive during this one
				var err error
				if m, err = delta.New(rel, delta.Config{Algorithm: "sp-cube", Agg: agg.Count, MinSup: bc.minSup, Workers: 8, Seed: 1}); err != nil {
					b.Fatal(err)
				}
				if st, err = serve.BuildRun(m.Relation(), m.Published); err != nil {
					b.Fatal(err)
				}
				if st.Groups() != bc.groups {
					b.Fatalf("serving %d groups, want %d", st.Groups(), bc.groups)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(m)
			runtime.KeepAlive(st)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1e6, "live-MB")
		})
	}
}
