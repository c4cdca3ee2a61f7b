// Package spcube computes data cubes over relations using the SP-Cube
// algorithm of Milo & Altshuler, "An Efficient MapReduce Cube Algorithm for
// Varied Data Distributions" (SIGMOD 2016), on an embedded simulated
// MapReduce cluster.
//
// A data cube aggregates a measure over every subset of a relation's
// dimension attributes. SP-Cube first builds the SP-Sketch — a compact
// summary recording each cuboid's skewed groups and range-partition
// boundaries — and then computes the full cube in a single additional
// MapReduce round, pre-aggregating skewed groups in the mappers and
// factorizing the remaining work across reducers so that intermediate
// traffic stays near-linear in the input for common data distributions.
//
// Quick start:
//
//	rel := spcube.NewRelation([]string{"name", "city", "year"}, "sales")
//	rel.AddRow([]string{"laptop", "Rome", "2012"}, 2000)
//	rel.AddRow([]string{"laptop", "Paris", "2012"}, 1500)
//	// ... more rows ...
//	c, err := spcube.Compute(rel, spcube.Aggregate(spcube.Sum))
//	if err != nil { ... }
//	total, _ := c.Value("laptop", "*", "2012") // sales of laptops in 2012
//
// The package also exposes the baselines the paper evaluates against
// (the naive cube, Pig's MR-Cube, and a Hive-style cube) through the
// Algorithm option, together with per-run cluster statistics, so the
// trade-offs measured in the paper can be reproduced programmatically; the
// full benchmark suite lives in cmd/spbench.
package spcube

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	spalgo "github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// MaxDims is the largest supported number of cube dimensions.
const MaxDims = lattice.MaxDims

// Relation is an in-memory relation: named dimension columns plus one
// numeric measure column.
type Relation struct {
	inner *relation.Relation
}

// NewRelation creates an empty relation with the given dimension column
// names and measure column name.
func NewRelation(dimNames []string, measureName string) *Relation {
	return &Relation{inner: relation.New(dimNames, measureName)}
}

// AddRow appends a row of string dimension values and a measure.
func (r *Relation) AddRow(dims []string, measure int64) {
	r.inner.AppendStrings(dims, measure)
}

// AddRowInts appends a row of already-encoded integer dimension values. A
// relation should stick to one of AddRow and AddRowInts; mixing them maps
// integer codes onto dictionary codes of the string rows.
func (r *Relation) AddRowInts(dims []int32, measure int64) {
	r.inner.Append(dims, measure)
}

// ReadCSV reads a relation from CSV: a header row naming the columns, every
// column but the last a dimension, the last an integer measure (the input
// shape of cmd/spcube and cmd/spserve).
func ReadCSV(r io.Reader) (*Relation, error) {
	inner, err := relation.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return &Relation{inner: inner}, nil
}

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return r.inner.N() }

// NumDims returns the number of dimension columns.
func (r *Relation) NumDims() int { return r.inner.D() }

// DimNames returns the dimension column names.
func (r *Relation) DimNames() []string {
	return append([]string(nil), r.inner.Schema.DimNames...)
}

// Agg selects an aggregate function.
type Agg struct {
	f agg.Func
}

// Built-in aggregate functions. Count, Sum, Min and Max are distributive
// and Avg is algebraic — the classes SP-Cube supports with constant-size
// partial states. Distinct (count of distinct measure values) is holistic:
// it is computed exactly, but its partial states grow with the data, so the
// paper's traffic guarantees do not apply to it.
var (
	Count    = Agg{agg.Count}
	Sum      = Agg{agg.Sum}
	Min      = Agg{agg.Min}
	Max      = Agg{agg.Max}
	Avg      = Agg{agg.Avg}
	Var      = Agg{agg.Var}
	Stddev   = Agg{agg.Stddev}
	Distinct = Agg{agg.Distinct}
)

// AggByName resolves an aggregate function by name
// ("count", "sum", "min", "max", "avg", "var", "stddev", "distinct").
func AggByName(name string) (Agg, error) {
	f, err := agg.ByName(name)
	if err != nil {
		return Agg{}, err
	}
	return Agg{f}, nil
}

// Name returns the function's name.
func (a Agg) Name() string {
	if a.f == nil {
		return "count"
	}
	return a.f.Name()
}

// Alg selects the cube algorithm.
type Alg int

const (
	// AlgSPCube is the paper's contribution: sketch-driven, two rounds.
	AlgSPCube Alg = iota
	// AlgNaive is Algorithm 1: project-everything with hash partitioning.
	AlgNaive
	// AlgMRCube is MR-Cube (Nandi et al.), Pig's CUBE operator.
	AlgMRCube
	// AlgHive models Hive's CUBE compilation.
	AlgHive
	// AlgPipesort is the top-down, one-round-per-lattice-level cube of
	// Lee et al. (§7 of the paper).
	AlgPipesort
)

// String returns the algorithm's name.
func (a Alg) String() string {
	if a < 0 || int(a) >= len(algo.Table) {
		return fmt.Sprintf("Alg(%d)", int(a))
	}
	return algo.Table[a].Name
}

// AlgByName resolves an algorithm by name.
func AlgByName(name string) (Alg, error) {
	i, err := algo.ByName(name)
	if err != nil {
		return 0, fmt.Errorf("spcube: %w", err)
	}
	return Alg(i), nil
}

// config is what the options build: the engine configuration they write
// into directly, plus the few choices that live above the engine.
type config struct {
	eng    mr.Config
	aggFn  agg.Func
	alg    Alg
	minSup int
	err    error // first option that could not be applied (a bad fault spec)
}

// Option configures Compute.
type Option func(*config)

// Workers sets the simulated cluster size k (default 8).
func Workers(k int) Option { return func(c *config) { c.eng.Workers = k } }

// Memory sets a machine's memory in tuples (default n/k), which is also the
// skew threshold of Definition 2.7.
func Memory(tuples int) Option { return func(c *config) { c.eng.MemTuples = tuples } }

// Aggregate sets the aggregate function (default Count).
func Aggregate(a Agg) Option { return func(c *config) { c.aggFn = a.f } }

// Algorithm selects the cube algorithm (default AlgSPCube).
func Algorithm(a Alg) Option { return func(c *config) { c.alg = a } }

// Seed fixes the sampling seed for reproducible runs (default 1).
func Seed(s int64) Option { return func(c *config) { c.eng.Seed = uint64(s) } }

// MinSupport computes an iceberg cube: only c-groups with at least n
// contributing rows are materialized. The default (and any value below 2)
// materializes the full cube.
func MinSupport(n int) Option { return func(c *config) { c.minSup = n } }

// Parallelism sets the number of goroutines executing each round's simulated
// tasks, and afterwards rendering the cube in WriteCSV: 0 (the default) uses
// all cores, 1 runs them sequentially. The computed cube, its CSV bytes and
// all simulated statistics are identical at any setting; only real
// wall-clock time changes.
func Parallelism(n int) Option { return func(c *config) { c.eng.Parallelism = n } }

// Faults injects deterministic task failures into the simulated cluster.
// The spec is a comma-separated list of round:phase:task:kind[:attempt[:count]]
// entries ("*" wildcards round and task; kinds: crash, mid-emit, oom, plus
// round:node:N:node-crash to kill a whole simulated machine — see
// mr.ParseFaultPlan). Failed tasks are transparently re-executed, and map
// output lost to a node crash is recomputed: the computed cube and all
// simulated statistics except the recovery counters are identical to a
// fault-free run. An empty spec (the default) injects nothing.
func Faults(spec string) Option {
	return func(c *config) {
		plan, err := mr.ParseFaultPlan(spec)
		if err != nil && c.err == nil {
			c.err = err
		}
		c.eng.Faults = plan
	}
}

// MaxAttempts bounds how many times one simulated task is executed before
// its injected failure becomes permanent and the computation fails
// (default 4). Only injected faults and engine-initiated kills (node loss)
// are retried.
func MaxAttempts(n int) Option { return func(c *config) { c.eng.MaxAttempts = n } }

// SpillBudget caps a map task's in-memory emit buffer at the given number
// of bytes: when key+value bytes held in memory reach the budget, the task
// sorts and flushes its buffered output to a compact on-disk run file, and
// reducers stream a k-way merge over the runs instead of materializing
// their input. The computed cube is byte-identical at any budget (including
// one so small every record spills); only Stats.Spills/SpillBytes and the
// simulated I/O cost change. 0 (the default) keeps everything in memory.
func SpillBudget(bytes int64) Option { return func(c *config) { c.eng.SpillBudgetBytes = bytes } }

// SpillDir sets the directory under which spill run files are created (a
// fresh temp subdirectory per computation, removed on return even on
// failure). Empty (the default) uses the operating system's temp dir.
func SpillDir(dir string) Option { return func(c *config) { c.eng.SpillDir = dir } }

// SpillCodec selects the block compression codec for spill run files
// written under the SpillBudget option: "raw" (no compression) or "lz"
// (an LZ77-family byte compressor). Empty (the default) means "raw". The
// computed cube and every deterministic statistic except the spilled byte
// counts are identical under any codec; an unknown name surfaces as an
// error from Compute.
func SpillCodec(name string) Option { return func(c *config) { c.eng.SpillCodec = name } }

// MergeFanIn caps how many spill runs a reducer merges at once (the analog
// of Hadoop's io.sort.factor, default 64): when a tiny SpillBudget produces
// more runs than the cap, contiguous groups are first merged into
// intermediate on-disk runs, repeating until at most MergeFanIn remain.
// The computed cube and reducer input are byte-identical at any fan-in;
// only Stats.MergePasses and the simulated I/O cost change. Values below 2
// are raised to 2.
func MergeFanIn(n int) Option { return func(c *config) { c.eng.MergeFanIn = n } }

// Trace streams the simulated cluster's structured lifecycle events — round
// start/end, task attempt start/success/failure/retry, shuffle, spill,
// fault injection — to w as JSON lines (one mr.TraceEvent per line). The
// stream is deterministic: identical, except for timestamps, at any
// Parallelism setting. A nil writer (the default) disables tracing at zero
// cost.
func Trace(w io.Writer) Option {
	return func(c *config) {
		c.eng.Tracer = nil
		if w != nil {
			c.eng.Tracer = mr.NewJSONLTracer(w)
		}
	}
}

// Context attaches a cancellation context to the computation: when ctx is
// cancelled (e.g. on SIGINT), in-flight rounds stop at the next attempt
// boundary and Compute returns ctx's error.
func Context(ctx context.Context) Option { return func(c *config) { c.eng.Context = ctx } }

// Stats summarizes a computation's execution on the simulated cluster.
type Stats struct {
	// Algorithm that produced the cube.
	Algorithm string
	// Rounds is the number of MapReduce rounds executed.
	Rounds int
	// SimSeconds is the simulated cluster running time (see internal/mr's
	// cost model); WallSeconds is the real in-process time.
	SimSeconds  float64
	WallSeconds float64
	// ShuffleRecords/Bytes is the total intermediate data transferred.
	ShuffleRecords int64
	ShuffleBytes   int64
	// SketchBytes is the serialized SP-Sketch size (SP-Cube only).
	SketchBytes int
	// SampleTuples is the SP-Sketch sample size (SP-Cube only).
	SampleTuples int
	// SkewedGroups is the number of skewed c-groups detected (SP-Cube
	// only).
	SkewedGroups int
	// Retries is the number of task re-executions forced by injected
	// faults (see the Faults option); RetryWallSeconds is the real time
	// the failed attempts consumed, and WastedBytes the partial output
	// they produced before it was discarded. All zero in fault-free runs.
	Retries          int64
	RetryWallSeconds float64
	WastedBytes      int64
	// Spills is the number of spill events (map-side run-file flushes under
	// the SpillBudget option plus reduce-side external aggregations), and
	// SpillBytes the exact front-coded bytes they encoded (before block
	// compression). CompressedSpillBytes is what physically hit disk after
	// the SpillCodec ran — equal to the framed raw size under "raw", smaller
	// under "lz" on compressible data. MergePasses counts intermediate
	// fan-in merges forced by the MergeFanIn cap. All zero when nothing
	// spilled.
	Spills               int64
	SpillBytes           int64
	CompressedSpillBytes int64
	MergePasses          int64
	// MapReexecutions is the number of completed map tasks re-run because a
	// node crash lost their output, and FetchFailures the lost map outputs
	// the reducers observed. Both zero without node-crash faults.
	MapReexecutions int64
	FetchFailures   int64
}

// statsFromRun extracts the facade statistics from a finished run.
func statsFromRun(run *cube.Run) Stats {
	t := run.Metrics.Totals()
	return Stats{
		Algorithm:        run.Algorithm,
		Rounds:           len(run.Metrics.Rounds),
		SimSeconds:       t.SimSeconds,
		WallSeconds:      t.WallSeconds,
		ShuffleRecords:   t.ShuffleRecords,
		ShuffleBytes:     t.ShuffleBytes,
		SketchBytes:      run.SketchBytes,
		SampleTuples:     run.SampleTuples,
		SkewedGroups:     run.SkewedGroups,
		Retries:          t.Retries,
		RetryWallSeconds: t.RetryWallSeconds,
		WastedBytes:      t.WastedBytes,
		Spills:           t.Spills,
		SpillBytes:       t.SpillBytes,

		CompressedSpillBytes: t.CompressedSpillBytes,
		MergePasses:          t.MergePasses,

		MapReexecutions: t.MapReexecutions,
		FetchFailures:   t.FetchFailures,
	}
}

// Group is one cube group: per-dimension values ("*" where the dimension is
// aggregated away) and the aggregate value.
type Group struct {
	Dims  []string
	Value float64
}

// Cube is a computed data cube.
type Cube struct {
	rel     *Relation
	run     *cube.SortedRun // aliases the job's DFS output files and keeps them alive
	stats   Stats
	metrics mr.JobMetrics
}

// newEngine applies the options and builds the engine a computation runs
// on.
func newEngine(rel *Relation, opts []Option) (*config, *mr.Engine, error) {
	cfg := &config{eng: mr.Config{Workers: 8, Seed: 1}, aggFn: agg.Count, alg: AlgSPCube}
	for _, opt := range opts {
		opt(cfg)
	}
	if rel == nil || rel.NumRows() == 0 {
		return nil, nil, errors.New("spcube: empty relation")
	}
	if rel.NumDims() == 0 || rel.NumDims() > MaxDims {
		return nil, nil, fmt.Errorf("spcube: dimension count %d out of range [1,%d]", rel.NumDims(), MaxDims)
	}
	if cfg.eng.Workers < 1 {
		return nil, nil, errors.New("spcube: need at least 1 worker")
	}
	if cfg.err != nil {
		return nil, nil, fmt.Errorf("spcube: %w", cfg.err)
	}
	return cfg, mr.New(cfg.eng, dfs.New(false)), nil
}

// collect indexes the output of one finished run under spec as a Cube.
func collect(eng *mr.Engine, rel *Relation, run *cube.Run, spec cube.Spec) (*Cube, error) {
	sorted, err := cube.CollectRun(eng, run.OutputPrefix, rel.NumDims(), spec)
	if err != nil {
		return nil, err
	}
	return &Cube{rel: rel, run: sorted, stats: statsFromRun(run), metrics: run.Metrics}, nil
}

// Compute runs a cube computation over the relation.
func Compute(rel *Relation, opts ...Option) (*Cube, error) {
	cfg, eng, err := newEngine(rel, opts)
	if err != nil {
		return nil, err
	}
	if cfg.alg < 0 || int(cfg.alg) >= len(algo.Table) {
		return nil, fmt.Errorf("spcube: unknown algorithm %v", cfg.alg)
	}
	fn := algo.Table[cfg.alg].New(int64(cfg.eng.Seed))
	spec := cube.Spec{Agg: cfg.aggFn, MinSup: cfg.minSup}
	run, err := fn(eng, rel.inner, spec)
	if err != nil {
		return nil, fmt.Errorf("spcube: %s failed: %w", cfg.alg, err)
	}
	c, err := collect(eng, rel, run, spec)
	if err != nil {
		return nil, fmt.Errorf("spcube: collecting output: %w", err)
	}
	return c, nil
}

// ComputeSet computes one cube per aggregate function over the same
// relation with SP-Cube, building the SP-Sketch only once (the sketch is a
// property of the relation, not of the aggregate — §4 of the paper). It is
// cheaper than calling Compute repeatedly and guarantees all cubes saw the
// same partitioning decisions. The Algorithm option is ignored; other
// options apply to every computation.
func ComputeSet(rel *Relation, aggs []Agg, opts ...Option) ([]*Cube, error) {
	if len(aggs) == 0 {
		return nil, errors.New("spcube: ComputeSet needs at least one aggregate")
	}
	cfg, eng, err := newEngine(rel, opts)
	if err != nil {
		return nil, err
	}
	specs := make([]cube.Spec, len(aggs))
	for i, a := range aggs {
		specs[i] = cube.Spec{Agg: a.f, MinSup: cfg.minSup}
	}
	runs, err := spalgo.ComputeMulti(eng, rel.inner, specs, spalgo.Options{Seed: int64(cfg.eng.Seed)})
	if err != nil {
		return nil, fmt.Errorf("spcube: %w", err)
	}
	cubes := make([]*Cube, len(runs))
	for i, run := range runs {
		if cubes[i], err = collect(eng, rel, run, specs[i]); err != nil {
			return nil, fmt.Errorf("spcube: collecting output %d: %w", i, err)
		}
	}
	return cubes, nil
}

// Stats returns the run's execution statistics.
func (c *Cube) Stats() Stats { return c.stats }

// MetricsJSON renders the run's full per-round metrics as the stable,
// versioned JSON document described by mr.MetricsSchemaVersion (indented,
// newline-terminated). Everything except the wall-clock fields is
// deterministic: identical at any Parallelism, and identical to a
// fault-free run except for the recovery-accounting fields.
func (c *Cube) MetricsJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := mr.ExportMetrics(&buf, &c.metrics); err != nil {
		return nil, fmt.Errorf("spcube: %w", err)
	}
	return buf.Bytes(), nil
}

// NumGroups returns the number of c-groups in the cube.
func (c *Cube) NumGroups() int { return c.run.Len() }

// Value looks up the aggregate of one c-group. Pass one value per
// dimension, with "*" for dimensions aggregated away; for example, with
// dimensions (name, city, year), Value("laptop", "*", "2012") returns the
// aggregate over all laptop rows of 2012. A value is read as Groups and
// Cuboid print it: a value added by AddRowInts is its decimal.
func (c *Cube) Value(vals ...string) (float64, bool) {
	d := c.rel.NumDims()
	if len(vals) != d {
		return 0, false
	}
	var mask uint32
	dims := make([]relation.Value, d)
	for i, v := range vals {
		if v == "*" {
			continue
		}
		code, ok := c.rel.inner.Dict.Lookup(i, v)
		if !ok {
			return 0, false
		}
		mask |= 1 << uint(i)
		dims[i] = code
	}
	return c.run.Lookup(lattice.Mask(mask), dims)
}

// ValueInts is Value for relations populated with AddRowInts; use
// StarInt for dimensions aggregated away. AddRowInts takes int32 values, so
// a probe outside that range names no group.
func (c *Cube) ValueInts(vals ...int64) (float64, bool) {
	d := c.rel.NumDims()
	if len(vals) != d {
		return 0, false
	}
	var mask uint32
	dims := make([]relation.Value, d)
	for i, v := range vals {
		if v == StarInt {
			continue
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return 0, false
		}
		mask |= 1 << uint(i)
		dims[i] = relation.Value(v)
	}
	return c.run.Lookup(lattice.Mask(mask), dims)
}

// StarInt marks an aggregated-away dimension in ValueInts.
const StarInt = int64(math.MinInt64)

// Cuboid returns the groups of the cuboid defined by the given dimension
// names (in schema order), sorted by their values. Unknown names are an
// error.
func (c *Cube) Cuboid(dimNames ...string) ([]Group, error) {
	d := c.rel.NumDims()
	names := c.rel.inner.Schema.DimNames
	var mask lattice.Mask
	for _, want := range dimNames {
		found := false
		for i, have := range names {
			if have == want {
				mask |= 1 << uint(i)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("spcube: unknown dimension %q (have %v)", want, names)
		}
	}
	groups := c.run.Cuboid(mask)
	out := make([]Group, 0, len(groups))
	for _, g := range groups {
		dims := c.rel.inner.Dict.GroupText(make([]string, d), uint32(mask), g.Packed)
		out = append(out, Group{Dims: dims, Value: g.Value})
	}
	return out, nil
}

// Groups calls fn for every c-group in the cube in ascending encoded-key
// order — the row order of WriteCSV. Each Group's Dims is the caller's to
// keep.
func (c *Cube) Groups(fn func(g Group)) {
	// EachRow only passes on the error of its callback.
	_ = c.run.EachRow(c.rel.inner, func(dims []string, value float64) error {
		fn(Group{Dims: append([]string(nil), dims...), Value: value})
		return nil
	})
}

// WriteCSV renders the cube as CSV: a header of the dimension names plus
// valueName, then one row per c-group in group-key order with "*" in
// aggregated-away dimensions (the output of cmd/spcube).
func (c *Cube) WriteCSV(w io.Writer, valueName string) error {
	return c.run.WriteCSV(w, c.rel.inner, valueName)
}
