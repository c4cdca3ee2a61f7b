package delta_test

// BenchmarkDeltaNew times what a server does between loading its input and
// building its index: delta.New — the cube job, an iceberg's under MinSup, and
// the collection of its output — over the served relations of the three
// harness workloads.
// BenchmarkDeltaApply times what one ingest cycle adds to it: a delta job over
// a harness-sized batch, merged into the maintained state. Both use only API
// older commits have (delta.New, delta.Config's Algorithm, Agg, MinSup,
// Workers and Seed, Maintainer.Apply and ApplyStrings, relation.New and
// AppendStrings), so `make bench-compare` can copy this file into a checkout
// of one and run the identical workload there.

import (
	"strconv"
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
		// iceberg_skew_spill's: the 1,261 published groups are all the
		// maintainer holds, of the full cube's ≈ 1.2 M.
		{"binomial38k", func() *relation.Relation { return data.GenBinomial(38000, 6, 0.5, 1) }, agg.Count, 10},
		// wiki_serve_ingest's, and the same under sum, whose job also carries
		// every group's count.
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
// are the batches, as in the harness. A leg that also deletes takes as many
// rows out of the prefix, from its front, each cycle. When the batches run
// out the maintainer is rebuilt off the clock. Every cycle is a delta, but
// for the legs that take either mode: older commits rebuilt the cube for
// them — for avg because they merged finals, for min because its deletes do
// not invert. A leg that ingests text serves the prefix as spserve loads its
// CSV file, dictionary-encoded from decimals, and hands each batch to
// ApplyStrings as /v1/ingest does, so each cycle encodes it into a copy of
// the dictionary.
func BenchmarkDeltaApply(b *testing.B) {
	for _, bc := range []struct {
		name          string
		rel           func() *relation.Relation
		served, batch int
		fn            agg.Func
		minSup        int
		deletes       bool
		eitherMode    bool
		text          bool
	}{
		{"uniform58k_300", func() *relation.Relation { return data.Uniform(80000, 4, 1<<30, 1) }, 58000, 300, agg.Count, 0, false, false, false},
		// full_uniform's ingest, through the dictionary.
		{"uniform58k_300_strings", func() *relation.Relation { return data.Uniform(80000, 4, 1<<30, 1) }, 58000, 300, agg.Count, 0, false, false, true},
		// iceberg_skew_spill's: most groups of a batch are below MinSup and
		// not held, so each cycle recomputes them.
		{"binomial38k_200", func() *relation.Relation { return data.GenBinomial(50000, 6, 0.5, 1) }, 38000, 200, agg.Count, 10, false, false, false},
		// wiki_serve_ingest's cycle under sum: a non-count aggregate's delta job.
		{"wiki125k_sum_150", func() *relation.Relation { return data.WikiTraffic(140000, 1) }, 125000, 150, agg.Sum, 0, false, false, false},
		// And under avg, whose finals are no sums of parts.
		{"wiki125k_avg_150", func() *relation.Relation { return data.WikiTraffic(140000, 1) }, 125000, 150, agg.Avg, 0, false, true, false},
		// And under min, appending and deleting: the groups the deletes
		// touch are recomputed over the whole relation.
		{"wiki125k_min_150", func() *relation.Relation { return data.WikiTraffic(140000, 1) }, 125000, 150, agg.Min, 0, true, true, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			all := bc.rel()
			served := &relation.Relation{Schema: all.Schema, Dict: all.Dict, Tuples: all.Tuples[:bc.served]}
			var rows []delta.Row // all's rows as text, when the leg ingests text
			if bc.text {
				served = relation.New(all.Schema.DimNames, all.Schema.MeasureName)
				for i, t := range all.Tuples {
					dims := make([]string, len(t.Dims))
					for j, v := range t.Dims {
						dims[j] = strconv.Itoa(int(v))
					}
					if i < bc.served {
						served.AppendStrings(dims, t.Measure)
					}
					rows = append(rows, delta.Row{Dims: dims, Measure: t.Measure})
				}
			}
			var m *delta.Maintainer
			var pool, gone []relation.Tuple
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(pool) < bc.batch {
					b.StopTimer()
					var err error
					if m, err = delta.New(served, delta.Config{Algorithm: "sp-cube", Agg: bc.fn, MinSup: bc.minSup, Workers: 8, Seed: 1}); err != nil {
						b.Fatal(err)
					}
					pool, gone = all.Tuples[bc.served:], all.Tuples[:bc.served]
					b.StartTimer()
				}
				batch := delta.Batch{Append: pool[:bc.batch]}
				if bc.deletes {
					batch.Delete, gone = gone[:bc.batch], gone[bc.batch:]
				}
				var rnd *delta.Round
				var err error
				if bc.text {
					next := len(all.Tuples) - len(pool)
					rnd, err = m.ApplyStrings(rows[next:next+bc.batch], nil)
				} else {
					rnd, err = m.Apply(batch)
				}
				if err != nil || rnd.Mode != "delta" && !bc.eitherMode {
					b.Fatalf("cycle %d: %+v, %v", i, rnd, err)
				}
				pool = pool[bc.batch:]
			}
		})
	}
}
