// Package bench regenerates the paper's evaluation (§6): one experiment per
// figure, producing the same series the paper plots — total running time,
// average map/reduce task time, intermediate ("map output") data size, and
// SP-Sketch size — for SP-Cube against the Pig (MR-Cube) and Hive baselines.
//
// Because the substrate is a simulator, absolute values are not comparable
// to the paper's AWS cluster; the experiments are judged on shape: who wins,
// by what factor, and where the crossovers and failures fall. EXPERIMENTS.md
// records measured-vs-paper for every figure. All experiments are
// deterministic in Config.Seed, and sweep sizes are scaled down ~1000× from
// the paper's 300M-row runs, with machine memory m = n/k scaling alongside
// so the skew structure (Definition 2.7) is preserved.
package bench

import (
	"fmt"
	"sort"

	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/algo/mrcube"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/algo/pipesort"
	"github.com/spcube/spcube/internal/algo/spcube"
)

// Config parameterizes an experiment run.
type Config struct {
	// Config is the engine configuration every experiment engine is created
	// with. Workers is the simulated cluster size (paper: 20) and Seed also
	// drives data generation; Tracer and Executor are shared by all runs of
	// the experiment (the bundled mr.JSONLTracer is safe for that) and the
	// caller closes the Executor; a cancelled Context stops the sweep at the
	// next attempt boundary and the remaining runs report DNF. Figures are
	// identical at any Parallelism, spill setting, backend and recoverable
	// fault plan.
	mr.Config
	// Scale multiplies every sweep's tuple counts (1 = defaults; tests
	// use small fractions).
	Scale float64
	// Collect, when set, receives one RunRecord per algorithm execution
	// with the run's full per-round metrics — the raw material of the
	// machine-readable metrics document (see MetricsDoc).
	Collect func(RunRecord)
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 20
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2016
	}
}

// seed is the data-generation and sampling seed in the generators' type.
func (c Config) seed() int64 { return int64(c.Seed) }

// collect delivers one execution's record to Config.Collect.
func (c Config) collect(algo string, rel *relation.Relation, metrics *mr.JobMetrics, err error) {
	if c.Collect != nil {
		c.Collect(RunRecord{Algo: algo, InputTuples: rel.N(), DNF: err != nil, Metrics: metrics})
	}
}

// Point is one measurement of one series. The JSON tags are part of the
// versioned metrics-document schema (see MetricsDoc).
type Point struct {
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	DNF bool    `json:"dnf,omitempty"` // the run failed (reducer OOM): plotted as "did not finish"
}

// Series is one curve of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Figure mirrors one sub-figure of the paper.
type Figure struct {
	ID     string   `json:"id"` // e.g. "fig4a"
	Title  string   `json:"title"`
	XLabel string   `json:"xLabel"`
	YLabel string   `json:"yLabel"`
	LogX   bool     `json:"logX,omitempty"`
	Series []Series `json:"series"`
}

// measures are the per-run quantities the figures plot.
type measures struct {
	totalSim     float64
	mapAvg       float64
	reduceAvg    float64
	shuffleBytes int64
	sketchBytes  int
	outBalance   []int64
	shuffleRecs  int64
	inBalance    []int64
	rounds       int
	dnf          bool
}

// algorithms under test, in the paper's plotting order.
type algo struct {
	name string
	fn   cube.ComputeFunc
}

func paperAlgos(seed int64) []algo {
	return []algo{
		{"Pig", func(e *mr.Engine, r *relation.Relation, s cube.Spec) (*cube.Run, error) {
			return mrcube.ComputeOpts(e, r, s, mrcube.Options{Seed: seed})
		}},
		{"Hive", hivecube.Compute},
		{"SP-Cube", func(e *mr.Engine, r *relation.Relation, s cube.Spec) (*cube.Run, error) {
			return spcube.ComputeOpts(e, r, s, spcube.Options{Seed: seed})
		}},
	}
}

// runOne executes one algorithm on one relation with a fresh engine.
func runOne(cfg Config, a algo, rel *relation.Relation) measures {
	eng := mr.New(cfg.Config, nil)
	run, err := a.fn(eng, rel, cube.Spec{Agg: agg.Count})
	ms := measures{dnf: err != nil}
	if run == nil {
		cfg.collect(a.name, rel, nil, err)
		return ms
	}
	cfg.collect(a.name, rel, &run.Metrics, err)
	tot := run.Metrics.Totals()
	ms.totalSim = tot.SimSeconds
	ms.mapAvg = tot.MapTimeAvg
	ms.reduceAvg = tot.ReduceTimeAvg
	ms.shuffleBytes = tot.ShuffleBytes
	ms.shuffleRecs = tot.ShuffleRecords
	ms.sketchBytes = run.SketchBytes
	ms.rounds = len(run.Metrics.Rounds)
	if n := ms.rounds; n > 0 {
		last := &run.Metrics.Rounds[n-1]
		ms.outBalance = last.ReducerOutputBytes()
		for i := range last.Reducers {
			ms.inBalance = append(ms.inBalance, last.Reducers[i].InBytes)
		}
	}
	return ms
}

// runSweep runs every algorithm across the x-axis, building one series per
// algorithm for each requested measure.
func runSweep(cfg Config, xs []float64, build func(x float64) *relation.Relation, algos []algo, wants []string) map[string][]Series {
	out := make(map[string][]Series, len(wants))
	for _, w := range wants {
		out[w] = make([]Series, len(algos))
		for i, a := range algos {
			out[w][i] = Series{Name: a.name}
		}
	}
	for _, x := range xs {
		rel := build(x)
		for i, a := range algos {
			ms := runOne(cfg, a, rel)
			for _, w := range wants {
				var y float64
				switch w {
				case "time":
					y = ms.totalSim
				case "map":
					y = ms.mapAvg
				case "reduce":
					y = ms.reduceAvg
				case "shuffle":
					y = float64(ms.shuffleBytes)
				case "sketch":
					y = float64(ms.sketchBytes)
				default:
					panic("bench: unknown measure " + w)
				}
				s := &out[w][i]
				s.Points = append(s.Points, Point{X: x, Y: y, DNF: ms.dnf})
			}
		}
	}
	return out
}

// scaleInts multiplies a default sweep by cfg.Scale, keeping at least 2
// points and at least ~500 tuples per point.
func (c Config) sizes(defaults ...int) []float64 {
	out := make([]float64, 0, len(defaults))
	for _, n := range defaults {
		v := float64(n) * c.Scale
		if v < 500 {
			v = 500
		}
		out = append(out, v)
	}
	return out
}

// Fig4 reproduces Figure 4 (Wikipedia Traffic Statistics): (a) total
// running time, (b) average reduce time, (c) map output size, as the number
// of tuples grows. Paper scale: 50M-300M tuples; default simulation scale:
// 50k-300k.
func Fig4(cfg Config) []Figure {
	cfg.defaults()
	xs := cfg.sizes(50_000, 100_000, 200_000, 300_000)
	algos := paperAlgos(cfg.seed())
	res := runSweep(cfg, xs, func(x float64) *relation.Relation {
		return data.WikiTraffic(int(x), cfg.seed())
	}, algos, []string{"time", "reduce", "shuffle"})
	return []Figure{
		{ID: "fig4a", Title: "Wikipedia: running times comparison", XLabel: "tuples", YLabel: "time (sim s)", Series: res["time"]},
		{ID: "fig4b", Title: "Wikipedia: reduce time comparison", XLabel: "tuples", YLabel: "avg reduce time (sim s)", Series: res["reduce"]},
		{ID: "fig4c", Title: "Wikipedia: map output comparison", XLabel: "tuples", YLabel: "intermediate bytes", Series: res["shuffle"]},
	}
}

// Fig5 reproduces Figure 5 (USAGOV): (a) total running time, (b) average
// map time, (c) SP-Sketch size, on a log-scale tuple sweep. Paper scale:
// 0.1M-30M; default simulation scale: 3k-100k.
func Fig5(cfg Config) []Figure {
	cfg.defaults()
	xs := cfg.sizes(3_000, 10_000, 30_000, 100_000)
	algos := paperAlgos(cfg.seed())
	res := runSweep(cfg, xs, func(x float64) *relation.Relation {
		return data.USAGov(int(x), cfg.seed()).Restrict(data.USAGovCubeDims)
	}, algos, []string{"time", "map", "sketch"})
	sketch := []Series{res["sketch"][2]} // SP-Cube only
	sketch[0].Name = "SP-Sketch"
	return []Figure{
		{ID: "fig5a", Title: "USAGOV: running times comparison", XLabel: "tuples (log)", YLabel: "time (sim s)", LogX: true, Series: res["time"]},
		{ID: "fig5b", Title: "USAGOV: map time comparison", XLabel: "tuples (log)", YLabel: "avg map time (sim s)", LogX: true, Series: res["map"]},
		{ID: "fig5c", Title: "USAGOV: SP-Sketch size", XLabel: "tuples (log)", YLabel: "sketch bytes", LogX: true, Series: sketch},
	}
}

// Fig6 reproduces Figure 6 (gen-binomial, varying skewness): (a) total
// running time, (b) map output size, (c) SP-Sketch size, as the skew
// probability p grows at fixed n. Paper: n=300M; default simulation: 100k.
func Fig6(cfg Config) []Figure {
	cfg.defaults()
	n := int(cfg.sizes(100_000)[0])
	ps := []float64{0, 0.1, 0.25, 0.4, 0.6, 0.75}
	algos := paperAlgos(cfg.seed())
	res := runSweep(cfg, ps, func(p float64) *relation.Relation {
		return data.GenBinomial(n, 4, p, cfg.seed())
	}, algos, []string{"time", "shuffle", "sketch"})
	sketch := []Series{res["sketch"][2]}
	sketch[0].Name = "SP-Sketch"
	return []Figure{
		{ID: "fig6a", Title: "gen-binomial: running time vs skewness", XLabel: "skew probability p", YLabel: "time (sim s)", Series: res["time"]},
		{ID: "fig6b", Title: "gen-binomial: map output vs skewness", XLabel: "skew probability p", YLabel: "intermediate bytes", Series: res["shuffle"]},
		{ID: "fig6c", Title: "gen-binomial: SP-Sketch size vs skewness", XLabel: "skew probability p", YLabel: "sketch bytes", Series: sketch},
	}
}

// Fig7 reproduces Figure 7 (gen-zipf): (a) total running time, (b) average
// reduce time, (c) map output size, on a log-scale tuple sweep. Paper:
// 1M-150M; default simulation: 2k-150k.
func Fig7(cfg Config) []Figure {
	cfg.defaults()
	xs := cfg.sizes(2_000, 15_000, 50_000, 150_000)
	algos := paperAlgos(cfg.seed())
	res := runSweep(cfg, xs, func(x float64) *relation.Relation {
		return data.GenZipf(int(x), cfg.seed())
	}, algos, []string{"time", "reduce", "shuffle"})
	return []Figure{
		{ID: "fig7a", Title: "gen-zipf: running times comparison", XLabel: "tuples (log)", YLabel: "time (sim s)", LogX: true, Series: res["time"]},
		{ID: "fig7b", Title: "gen-zipf: average reduce time comparison", XLabel: "tuples (log)", YLabel: "avg reduce time (sim s)", LogX: true, Series: res["reduce"]},
		{ID: "fig7c", Title: "gen-zipf: map output size comparison", XLabel: "tuples (log)", YLabel: "intermediate bytes", LogX: true, Series: res["shuffle"]},
	}
}

// Fig8 reproduces Figure 8 (gen-binomial, varying data size at p=0.1):
// (a) total running time, (b) average map time, (c) map output size.
// Paper: 1M-300M; default simulation: 3k-300k.
func Fig8(cfg Config) []Figure {
	cfg.defaults()
	xs := cfg.sizes(3_000, 10_000, 30_000, 100_000, 300_000)
	algos := paperAlgos(cfg.seed())
	res := runSweep(cfg, xs, func(x float64) *relation.Relation {
		return data.GenBinomial(int(x), 4, 0.1, cfg.seed())
	}, algos, []string{"time", "map", "shuffle"})
	return []Figure{
		{ID: "fig8a", Title: "gen-binomial p=0.1: running times comparison", XLabel: "tuples (log)", YLabel: "time (sim s)", LogX: true, Series: res["time"]},
		{ID: "fig8b", Title: "gen-binomial p=0.1: average map time comparison", XLabel: "tuples (log)", YLabel: "avg map time (sim s)", LogX: true, Series: res["map"]},
		{ID: "fig8c", Title: "gen-binomial p=0.1: map output size comparison", XLabel: "tuples (log)", YLabel: "intermediate bytes", LogX: true, Series: res["shuffle"]},
	}
}

// Balance reproduces the §6.2 closing claim: SP-Cube's reducer output files
// have similar sizes. It reports max/mean per-reducer output for each
// algorithm on each workload.
func Balance(cfg Config) []Figure {
	cfg.defaults()
	n := int(cfg.sizes(100_000)[0])
	workloads := []struct {
		name string
		rel  *relation.Relation
	}{
		{"wiki", data.WikiTraffic(n, cfg.seed())},
		{"zipf", data.GenZipf(n, cfg.seed())},
		{"binomial-0.4", data.GenBinomial(n, 4, 0.4, cfg.seed())},
	}
	algos := paperAlgos(cfg.seed())
	out := Figure{ID: "balance-out", Title: "reducer output balance (max/median, lower=better)",
		XLabel: "workload", YLabel: "max/median output"}
	in := Figure{ID: "balance-in", Title: "reducer input balance (max/median, lower=better; Prop 4.2/4.6)",
		XLabel: "workload", YLabel: "max/median input"}
	for _, a := range algos {
		so := Series{Name: a.name}
		si := Series{Name: a.name}
		for wi, w := range workloads {
			ms := runOne(cfg, a, w.rel)
			so.Points = append(so.Points, Point{X: float64(wi), Y: imbalance(ms.outBalance), DNF: ms.dnf})
			si.Points = append(si.Points, Point{X: float64(wi), Y: imbalance(ms.inBalance), DNF: ms.dnf})
		}
		out.Series = append(out.Series, so)
		in.Series = append(in.Series, si)
	}
	return []Figure{out, in}
}

// imbalance is max/median over the reducers' output sizes. The median is
// robust to a single special-role reducer with near-empty output (SP-Cube's
// dedicated skew reducer emits only the few dozen skewed groups), which
// would otherwise drag a mean-based metric.
func imbalance(outs []int64) float64 {
	if len(outs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := float64(sorted[len(sorted)/2])
	maxV := float64(sorted[len(sorted)-1])
	if median == 0 {
		return maxV
	}
	return maxV / median
}

// Traffic verifies the intermediate-data bounds of §5.2: on uniform
// (skewness-monotonic) data traffic grows like O(d²·n) records — in fact at
// most d·n tuples are shipped — while on the adversarial relation of
// Theorem 5.3 it is Θ(2^d·n).
func Traffic(cfg Config) []Figure {
	cfg.defaults()
	uniform := Series{Name: "uniform (records/n)"}
	adversarial := Series{Name: "adversarial (records/n)"}
	bound := Series{Name: "d (Prop 5.5 record bound)"}
	expBound := Series{Name: "2^(d-1) (Thm 5.3 scale)"}
	for _, d := range []int{4, 6, 8, 10} {
		n := int(cfg.sizes(40_000)[0])
		relU := data.Uniform(n, d, 1<<30, cfg.seed())
		msU := runOne(cfg, paperAlgos(cfg.seed())[2], relU)
		uniform.Points = append(uniform.Points, Point{X: float64(d), Y: float64(msU.shuffleRecs) / float64(n)})

		m := 40 * int(cfg.Scale*10+1)
		relA := data.Adversarial(d, m)
		msA := runOne(cfg, paperAlgos(cfg.seed())[2], relA)
		adversarial.Points = append(adversarial.Points, Point{X: float64(d), Y: float64(msA.shuffleRecs) / float64(relA.N())})

		bound.Points = append(bound.Points, Point{X: float64(d), Y: float64(d)})
		expBound.Points = append(expBound.Points, Point{X: float64(d), Y: float64(int(1) << uint(d-1))})
	}
	return []Figure{{
		ID: "traffic", Title: "SP-Cube intermediate records per input tuple vs d (§5.2)",
		XLabel: "dimensions d", YLabel: "shuffle records / n",
		Series: []Series{uniform, bound, adversarial, expBound},
	}}
}

// Ablation quantifies SP-Cube's two design choices (DESIGN.md): mapper-side
// skew pre-aggregation and factorized ancestor computation, by disabling
// each on a skewed workload.
func Ablation(cfg Config) []Figure {
	cfg.defaults()
	n := int(cfg.sizes(100_000)[0])
	rel := data.GenBinomial(n, 4, 0.4, cfg.seed())
	variants := []struct {
		name string
		opts spcube.Options
	}{
		{"SP-Cube", spcube.Options{Seed: cfg.seed()}},
		{"no-skew-handling", spcube.Options{Seed: cfg.seed(), DisableSkewHandling: true}},
		{"no-factorization", spcube.Options{Seed: cfg.seed(), DisableFactorization: true}},
		{"naive", spcube.Options{}},
	}
	timeFig := Figure{ID: "ablation-time", Title: "ablation: gen-binomial p=0.4 running time", XLabel: "variant", YLabel: "time (sim s)"}
	shuffleFig := Figure{ID: "ablation-shuffle", Title: "ablation: gen-binomial p=0.4 intermediate bytes", XLabel: "variant", YLabel: "bytes"}
	for vi, v := range variants {
		var fn cube.ComputeFunc
		if v.name == "naive" {
			fn = naive.Compute
		} else {
			opts := v.opts
			fn = func(e *mr.Engine, r *relation.Relation, s cube.Spec) (*cube.Run, error) {
				return spcube.ComputeOpts(e, r, s, opts)
			}
		}
		ms := runOne(cfg, algo{v.name, fn}, rel)
		timeFig.Series = append(timeFig.Series, Series{Name: v.name, Points: []Point{{X: float64(vi), Y: ms.totalSim, DNF: ms.dnf}}})
		shuffleFig.Series = append(shuffleFig.Series, Series{Name: v.name, Points: []Point{{X: float64(vi), Y: float64(ms.shuffleBytes), DNF: ms.dnf}}})
	}
	return []Figure{timeFig, shuffleFig}
}

// Rounds quantifies the §7 objection to top-down multi-round cubes: the
// parallel Pipesort of Lee et al. pays one MapReduce round per lattice
// level, so its running time grows with d even when the data volume does
// not; SP-Cube always uses two rounds and Pig three-plus.
func Rounds(cfg Config) []Figure {
	cfg.defaults()
	n := int(cfg.sizes(50_000)[0])
	timeFig := Figure{ID: "rounds-time", Title: "top-down Pipesort vs SP-Cube vs Pig: time vs dimensions",
		XLabel: "dimensions d", YLabel: "time (sim s)"}
	roundFig := Figure{ID: "rounds-count", Title: "MapReduce rounds vs dimensions",
		XLabel: "dimensions d", YLabel: "rounds"}
	algos := []algo{
		{"Pipesort", pipesort.Compute},
		paperAlgos(cfg.seed())[0], // Pig
		paperAlgos(cfg.seed())[2], // SP-Cube
	}
	for _, a := range algos {
		st := Series{Name: a.name}
		sr := Series{Name: a.name}
		for _, d := range []int{2, 3, 4, 5, 6} {
			rel := data.Uniform(n, d, 1000, cfg.seed())
			ms := runOne(cfg, a, rel)
			if ms.dnf {
				st.Points = append(st.Points, Point{X: float64(d), DNF: true})
				sr.Points = append(sr.Points, Point{X: float64(d), DNF: true})
				continue
			}
			st.Points = append(st.Points, Point{X: float64(d), Y: ms.totalSim})
			sr.Points = append(sr.Points, Point{X: float64(d), Y: float64(ms.rounds)})
		}
		timeFig.Series = append(timeFig.Series, st)
		roundFig.Series = append(roundFig.Series, sr)
	}
	return []Figure{timeFig, roundFig}
}

// Experiments maps experiment ids to their runners.
var Experiments = map[string]func(Config) []Figure{
	"fig4":     Fig4,
	"fig5":     Fig5,
	"fig6":     Fig6,
	"fig7":     Fig7,
	"fig8":     Fig8,
	"balance":  Balance,
	"traffic":  Traffic,
	"ablation": Ablation,
	"rounds":   Rounds,
	"sketch":   SketchQuality,
}

// ExperimentOrder is the canonical execution order for -exp all.
var ExperimentOrder = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "balance", "traffic", "ablation", "rounds", "sketch"}

// All runs every experiment.
func All(cfg Config) []Figure {
	var out []Figure
	for _, id := range ExperimentOrder {
		out = append(out, Experiments[id](cfg)...)
	}
	return out
}

// ByID runs one experiment.
func ByID(id string, cfg Config) ([]Figure, error) {
	fn, ok := Experiments[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (want one of %v or all)", id, ExperimentOrder)
	}
	return fn(cfg), nil
}
