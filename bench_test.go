package spcube

// One benchmark per figure of the paper's evaluation (§6), plus
// micro-benchmarks of the core building blocks. The figure benchmarks run
// the same harness as cmd/spbench at a reduced scale and report the series'
// headline numbers as custom metrics, so `go test -bench=.` regenerates the
// paper's evaluation in miniature; run `go run ./cmd/spbench` for the
// full-scale sweeps.

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/algo/mrcube"
	"github.com/spcube/spcube/internal/algo/naive"
	spalgo "github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/bench"
	"github.com/spcube/spcube/internal/buc"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// benchScale keeps `go test -bench` runs quick; cmd/spbench uses 1.0.
const benchScale = 0.05

// reportFigure runs one paper experiment and reports, per series, the
// final (largest-x) y value as a custom metric.
func reportFigure(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Config: mr.Config{Workers: 20, Seed: 2016}, Scale: benchScale}
	var figs []bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = bench.ByID(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range figs {
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				continue
			}
			last := s.Points[len(s.Points)-1]
			unit := metricUnit(f.ID + "/" + s.Name)
			if last.DNF {
				b.ReportMetric(-1, unit)
				continue
			}
			b.ReportMetric(last.Y, unit)
		}
	}
}

// metricUnit sanitizes a series label into a ReportMetric unit (no
// whitespace allowed).
func metricUnit(label string) string {
	label = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t':
			return '_'
		case '(', ')':
			return -1
		}
		return r
	}, label)
	return label
}

// BenchmarkFig4Wikipedia regenerates Figure 4 (Wikipedia Traffic
// Statistics): running time, reduce time, and map output vs data size.
func BenchmarkFig4Wikipedia(b *testing.B) { reportFigure(b, "fig4") }

// BenchmarkFig5USAGov regenerates Figure 5 (USAGOV): running time, map
// time, and SP-Sketch size vs data size.
func BenchmarkFig5USAGov(b *testing.B) { reportFigure(b, "fig5") }

// BenchmarkFig6Skewness regenerates Figure 6 (gen-binomial): running time,
// map output, and sketch size vs the skew probability p.
func BenchmarkFig6Skewness(b *testing.B) { reportFigure(b, "fig6") }

// BenchmarkFig7Zipf regenerates Figure 7 (gen-zipf): running time, average
// reduce time, and map output vs data size.
func BenchmarkFig7Zipf(b *testing.B) { reportFigure(b, "fig7") }

// BenchmarkFig8BinomialSize regenerates Figure 8 (gen-binomial at p=0.1):
// running time, average map time, and map output vs data size.
func BenchmarkFig8BinomialSize(b *testing.B) { reportFigure(b, "fig8") }

// BenchmarkLoadBalance regenerates the §6.2 reducer-balance claim.
func BenchmarkLoadBalance(b *testing.B) { reportFigure(b, "balance") }

// BenchmarkTrafficBounds regenerates the §5.2 intermediate-data bounds
// (Proposition 5.5 and Theorem 5.3).
func BenchmarkTrafficBounds(b *testing.B) { reportFigure(b, "traffic") }

// BenchmarkAblation quantifies SP-Cube's two design choices (skew
// pre-aggregation, factorized ancestors) by disabling each.
func BenchmarkAblation(b *testing.B) { reportFigure(b, "ablation") }

// BenchmarkRounds quantifies the §7 objection to top-down multi-round
// cubes (parallel Pipesort) against SP-Cube's fixed two rounds.
func BenchmarkRounds(b *testing.B) { reportFigure(b, "rounds") }

// BenchmarkSketchQuality regenerates the SP-Sketch property checks of §4
// (sample size, skew detection recall, sketch size).
func BenchmarkSketchQuality(b *testing.B) { reportFigure(b, "sketch") }

// ---- algorithm micro-benchmarks (fixed workload, wall-clock focused) ----

func benchAlgo(b *testing.B, fn cube.ComputeFunc, rel *relation.Relation) {
	b.Helper()
	b.ReportAllocs()
	var shuffle int64
	var sim float64
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 10, Seed: 1}, nil)
		run, err := fn(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			b.Fatal(err)
		}
		tot := run.Metrics.Totals()
		shuffle, sim = tot.ShuffleBytes, tot.SimSeconds
	}
	b.ReportMetric(float64(shuffle), "shuffleB")
	b.ReportMetric(sim, "sim-s")
	b.ReportMetric(float64(rel.N())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkSPCubeWiki(b *testing.B) {
	rel := data.WikiTraffic(20_000, 1)
	benchAlgo(b, spalgo.Compute, rel)
}

func BenchmarkNaiveWiki(b *testing.B) {
	rel := data.WikiTraffic(20_000, 1)
	benchAlgo(b, naive.Compute, rel)
}

func BenchmarkMRCubeWiki(b *testing.B) {
	rel := data.WikiTraffic(20_000, 1)
	benchAlgo(b, mrcube.Compute, rel)
}

func BenchmarkHiveCubeWiki(b *testing.B) {
	rel := data.WikiTraffic(20_000, 1)
	benchAlgo(b, func(e *mr.Engine, r *relation.Relation, s cube.Spec) (*cube.Run, error) {
		return hivecube.ComputeOpts(e, r, s, hivecube.Options{DisableOOM: true})
	}, rel)
}

func BenchmarkSPCubeZipf(b *testing.B) {
	rel := data.GenZipf(20_000, 1)
	benchAlgo(b, spalgo.Compute, rel)
}

func BenchmarkSPCubeBinomialSkewed(b *testing.B) {
	rel := data.GenBinomial(20_000, 4, 0.6, 1)
	benchAlgo(b, spalgo.Compute, rel)
}

// ---- building-block micro-benchmarks ----

func BenchmarkBUCFullCube(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tuples := make([]relation.Tuple, 20_000)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			Dims:    []relation.Value{int32(rng.Intn(50)), int32(rng.Intn(50)), int32(rng.Intn(50)), int32(rng.Intn(50))},
			Measure: 1,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := 0
		buc.Compute(tuples, 4, agg.Count, 1, func(lattice.Mask, []relation.Value, agg.State) { groups++ })
		if groups == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkSketchBuild(b *testing.B) {
	rel := data.WikiTraffic(50_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mr.New(mr.Config{Workers: 20, Seed: 1}, nil)
		built, err := sketch.Build(eng, rel, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(built.EncodedBytes), "sketchB")
		}
	}
}

func BenchmarkGroupKeyEncode(b *testing.B) {
	dims := []relation.Value{1_000_000, 7, 2012, 3}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = relation.EncodeGroupKey(buf, uint32(i)&0xF, dims)
	}
}

func BenchmarkGroupKeyDecode(b *testing.B) {
	key := relation.GroupKey(0b1011, []relation.Value{1_000_000, 7, 2012, 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := relation.DecodeGroupKey(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatticeWalk(b *testing.B) {
	// The SP-Cube mapper's hot loop: BFS over a 4-d tuple lattice with
	// superset marking.
	order := lattice.BFSOrder(4)
	marks := lattice.NewMarks(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		marks.Reset()
		for _, m := range order {
			if marks.Marked(m) {
				continue
			}
			if m.Level() <= 1 {
				marks.Mark(m)
				continue
			}
			marks.MarkSupersetsIncl(m)
		}
	}
}

func BenchmarkPublicAPI(b *testing.B) {
	rel := NewRelation([]string{"a", "b", "c"}, "m")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000; i++ {
		rel.AddRowInts([]int32{rng.Int31n(50), rng.Int31n(50), rng.Int31n(50)}, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Compute(rel, Workers(4), Seed(1))
		if err != nil {
			b.Fatal(err)
		}
		if c.NumGroups() == 0 {
			b.Fatal("empty cube")
		}
	}
}
