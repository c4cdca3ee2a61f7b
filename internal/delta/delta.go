// Package delta maintains a computed data cube incrementally under batches
// of appended and deleted tuples, the maintenance story HaCube brings to
// MapReduce cube computation: instead of recomputing the cube over the full
// relation per batch, run a small delta-cube MR job over just the batch and
// merge its result into the stored cube.
//
// Merging happens on *final* aggregate values (the stored cube holds no
// partial states), which is sound exactly for the functions whose finals
// are themselves distributive: count and sum finals add (and subtract, so
// deletes work), min and max finals combine by extreme (appends only —
// deleting the minimum reveals an unknown runner-up). For every other
// aggregate, and for batches whose SP-Sketch has drifted too far from the
// base sketch (the partitioning decisions of the base cube no longer
// describe the merged relation), the maintainer falls back to a full
// rebuild. The decision, its reason and the measured drift are recorded on
// every cycle, annotated into the engine metrics (schema v3 "maint"
// rounds) and emitted as maint-start/maint-end trace events.
//
// Deletes are counted: the maintainer keeps every group's tuple count next
// to its value, so a group whose count reaches zero is removed rather than
// left at a stale value, and iceberg thresholds (MinSup) are re-evaluated
// per cycle against the maintained counts.
//
// The maintainer is deliberately storage-agnostic: Apply returns the exact
// set of changed c-groups (or nil for a rebuild), and the serving layer
// turns that into an atomic in-place index patch. All MR jobs of a cycle
// run before any state is mutated, so a failed cycle (injected faults with
// exhausted retries) leaves the maintained cube — and anything serving it —
// untouched.
package delta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// DefaultRebuildThreshold is the sketch-drift level above which a delta
// batch forces a full rebuild when Config.RebuildThreshold is unset.
const DefaultRebuildThreshold = 0.6

// Config parameterizes a Maintainer.
type Config struct {
	// Algorithm names the cube algorithm used for delta jobs and rebuilds:
	// any name or alias in algo.Table (default sp-cube).
	Algorithm string
	// Agg is the maintained aggregate (default count).
	Agg agg.Func
	// MinSup is the published iceberg threshold: Result and Apply's change
	// lists expose only groups with at least MinSup contributing tuples
	// (values below 2 publish the full cube). The maintainer always
	// maintains the full cube internally so groups can cross the threshold
	// in either direction across batches.
	MinSup int
	// Workers is the simulated cluster size (default 8).
	Workers int
	// Parallelism, Seed, Faults, MaxAttempts, SpeculativeSlack and
	// TaskTimeout configure the engines the maintenance jobs run on, with
	// mr.Config semantics.
	Parallelism      int
	Seed             int64
	Faults           *mr.FaultPlan
	MaxAttempts      int
	SpeculativeSlack float64
	TaskTimeout      float64
	// SpillBudgetBytes, SpillDir, SpillCodec and MergeFanIn configure the
	// engines' out-of-core shuffle, with mr.Config semantics (0 keeps
	// everything in memory; empty codec means raw; 0 fan-in means the
	// engine default).
	SpillBudgetBytes int64
	SpillDir         string
	SpillCodec       string
	MergeFanIn       int
	// RebuildThreshold is the sketch-drift level in [0,1] above which a
	// batch is applied by full rebuild instead of delta-merge; 0 means
	// DefaultRebuildThreshold, negative forces rebuild on every batch.
	RebuildThreshold float64
	// Tracer receives the engines' lifecycle events plus the maintainer's
	// maint-start/maint-end cycle events (numbered by the maintainer's own
	// sequence counter; engine sequences restart per cycle).
	Tracer mr.Tracer
	// Context, when set, cancels in-flight maintenance jobs: Apply returns
	// the context's error at the next attempt boundary. Maintenance engines
	// always run the local execution backend — delta jobs are small and
	// frequent, a poor fit for per-job worker-process spawn costs.
	Context context.Context
}

// Batch is one maintenance batch: tuples to append and tuples to delete.
// Deleted tuples must exist in the maintained relation (multiset
// semantics: deleting a tuple present twice removes one occurrence).
type Batch struct {
	Append []relation.Tuple
	Delete []relation.Tuple
}

// Row is a string-valued input row for ApplyStrings.
type Row struct {
	Dims    []string
	Measure int64
}

// Change is one published c-group whose value changed in a cycle: the
// group's encoded key and its new value, or Delete for a group that left
// the published cube (count reached zero or fell below MinSup).
type Change struct {
	Key    string
	Value  float64
	Delete bool
}

// Round records one applied maintenance cycle.
type Round struct {
	// Round is the 1-based cycle ordinal.
	Round int
	// Mode is "delta" or "rebuild"; Reason explains the choice
	// ("mergeable", "aggregate", "deletes", "drift", "forced").
	Mode   string
	Reason string
	// Drift is the batch's sketch drift vs. the base sketch.
	Drift float64
	// Appended/Deleted count the batch's tuples.
	Appended int
	Deleted  int
	// Changes lists the published groups this cycle changed, sorted by
	// key; nil when the cycle rebuilt the cube (everything may have moved).
	Changes []Change
	// Metrics holds the cycle's MR rounds, annotated with MaintInfo.
	Metrics mr.JobMetrics
}

// Maintainer owns a relation and its maintained cube. All methods are safe
// for concurrent use; Apply serializes cycles.
type Maintainer struct {
	mu  sync.Mutex
	cfg Config
	rel *relation.Relation

	// cube is the full (non-iceberg) cube, the maintainer's only copy of
	// it: encoded group key → final value and tuple count.
	cube map[string]group

	// baseSketch is the SP-Sketch of the relation as of the last full
	// (re)build; batch drift is measured against it.
	baseSketch *sketch.Sketch

	metrics mr.JobMetrics
	rounds  []Round
	seq     int64 // maintainer-scoped trace sequence
}

// group is one maintained c-group: its final aggregate value and the number
// of tuples contributing to it.
type group struct {
	val float64
	cnt int64
}

// New builds the initial cube over rel (cycle 0, always a full build) and
// returns a maintainer owning a private copy of the relation; the caller's
// rel is not retained.
func New(rel *relation.Relation, cfg Config) (*Maintainer, error) {
	if rel == nil || rel.N() == 0 {
		return nil, errors.New("delta: empty relation")
	}
	if cfg.Agg == nil {
		cfg.Agg = agg.Count
	}
	if cfg.Workers < 1 {
		cfg.Workers = 8
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "sp-cube"
	}
	if cfg.RebuildThreshold == 0 {
		cfg.RebuildThreshold = DefaultRebuildThreshold
	}
	if _, err := computeFunc(cfg); err != nil {
		return nil, err
	}

	own := &relation.Relation{
		Schema: rel.Schema,
		Tuples: append([]relation.Tuple(nil), rel.Tuples...),
	}
	if rel.Dict != nil {
		own.Dict = rel.Dict.Clone()
	}
	m := &Maintainer{cfg: cfg, rel: own}
	info := &mr.MaintInfo{Round: 0, Mode: "rebuild", Reason: "initial", Appended: own.N()}
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintStart, Round: 0, Job: "maintenance",
		Mode: info.Mode, Records: int64(own.N())})
	var metrics mr.JobMetrics
	groups, err := m.runJobs(own, &metrics)
	if err != nil {
		m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: 0, Job: "maintenance",
			Failed: true, Err: err.Error()})
		return nil, err
	}
	m.cube = groups
	m.baseSketch = sketch.BuildExact(own, cfg.Workers, memTuples(own.N(), cfg.Workers))
	annotate(&metrics, info)
	m.metrics.Rounds = append(m.metrics.Rounds, metrics.Rounds...)
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: 0, Job: "maintenance",
		Records: int64(len(groups))})
	return m, nil
}

// Apply runs one maintenance cycle over the batch. On error the maintained
// cube, relation and sketch are unchanged.
func (m *Maintainer) Apply(batch Batch) (*Round, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(batch, nil)
}

// ApplyStrings is Apply for string-valued rows: appended rows extend the
// dictionary (copy-on-write, so concurrent readers of previously returned
// dictionaries are unaffected), deleted rows must resolve to existing
// dictionary codes and tuples.
func (m *Maintainer) ApplyStrings(appends, deletes []Row) (*Round, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rel.Dict == nil {
		return nil, errors.New("delta: ApplyStrings on relation without dictionary")
	}
	d := m.rel.D()
	dict := m.rel.Dict.Clone()
	var batch Batch
	for i, row := range appends {
		if len(row.Dims) != d {
			return nil, fmt.Errorf("delta: append row %d has %d dims, schema has %d", i, len(row.Dims), d)
		}
		enc := make([]relation.Value, d)
		for j, s := range row.Dims {
			enc[j] = dict.Encode(j, s)
		}
		batch.Append = append(batch.Append, relation.Tuple{Dims: enc, Measure: row.Measure})
	}
	for i, row := range deletes {
		if len(row.Dims) != d {
			return nil, fmt.Errorf("delta: delete row %d has %d dims, schema has %d", i, len(row.Dims), d)
		}
		enc := make([]relation.Value, d)
		for j, s := range row.Dims {
			code, ok := dict.Code(j, s)
			if !ok {
				return nil, fmt.Errorf("delta: delete row %d: unknown value %q in dimension %d", i, s, j)
			}
			enc[j] = code
		}
		batch.Delete = append(batch.Delete, relation.Tuple{Dims: enc, Measure: row.Measure})
	}
	return m.applyLocked(batch, dict)
}

// applyLocked runs one cycle; newDict, when non-nil, replaces the
// relation's dictionary on success (staged by ApplyStrings).
func (m *Maintainer) applyLocked(batch Batch, newDict *relation.Dictionary) (*Round, error) {
	d := m.rel.D()
	for i, t := range batch.Append {
		if len(t.Dims) != d {
			return nil, fmt.Errorf("delta: append tuple %d has %d dims, schema has %d", i, len(t.Dims), d)
		}
	}
	deleteIdx, err := m.locateDeletes(batch.Delete)
	if err != nil {
		return nil, err
	}
	if len(batch.Append) == 0 && len(batch.Delete) == 0 {
		return nil, errors.New("delta: empty batch")
	}

	rnd := Round{
		Round:    len(m.rounds) + 1,
		Appended: len(batch.Append),
		Deleted:  len(batch.Delete),
	}
	rnd.Mode, rnd.Reason, rnd.Drift = m.decide(batch)
	info := &mr.MaintInfo{
		Round: rnd.Round, Mode: rnd.Mode, Reason: rnd.Reason, Drift: rnd.Drift,
		Appended: rnd.Appended, Deleted: rnd.Deleted,
	}
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintStart, Round: rnd.Round, Job: "maintenance",
		Mode: rnd.Mode, Drift: rnd.Drift, Records: int64(rnd.Appended), Bytes: int64(rnd.Deleted)})

	var applyErr error
	if rnd.Mode == "delta" {
		applyErr = m.applyDelta(batch, deleteIdx, &rnd)
	} else {
		applyErr = m.applyRebuild(batch, deleteIdx, &rnd)
	}
	if applyErr != nil {
		m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: rnd.Round, Job: "maintenance",
			Failed: true, Err: applyErr.Error()})
		return nil, applyErr
	}
	if newDict != nil {
		m.rel.Dict = newDict
	}
	annotate(&rnd.Metrics, info)
	m.metrics.Rounds = append(m.metrics.Rounds, rnd.Metrics.Rounds...)
	m.rounds = append(m.rounds, rnd)
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: rnd.Round, Job: "maintenance",
		Records: int64(len(rnd.Changes))})
	out := rnd
	return &out, nil
}

// decide picks the cycle's mode. Delta-merge requires mergeable finals,
// invertible finals when the batch deletes, and bounded sketch drift.
func (m *Maintainer) decide(batch Batch) (mode, reason string, drift float64) {
	drift = m.batchDrift(batch)
	if _, ok := agg.FinalMerger(m.cfg.Agg); !ok {
		return "rebuild", "aggregate", drift
	}
	if len(batch.Delete) > 0 {
		if _, ok := agg.FinalInverter(m.cfg.Agg); !ok {
			return "rebuild", "deletes", drift
		}
	}
	if m.cfg.RebuildThreshold < 0 {
		return "rebuild", "forced", drift
	}
	if drift > m.cfg.RebuildThreshold {
		return "rebuild", "drift", drift
	}
	return "delta", "mergeable", drift
}

// batchDrift measures the appended tuples' sketch drift against the base
// sketch (a pure-delete batch does not shift the value distribution the
// base partitioning was derived from in a way a sketch of the deleted
// tuples would measure; it scores 0).
func (m *Maintainer) batchDrift(batch Batch) float64 {
	if len(batch.Append) == 0 || m.baseSketch == nil {
		return 0
	}
	deltaRel := &relation.Relation{Schema: m.rel.Schema, Tuples: batch.Append}
	n := m.rel.N()
	mem := memTuples(n, m.cfg.Workers)
	// Scale the skew threshold to the batch — a group holding the same
	// fraction of the batch as a skewed group holds of the base counts as
	// skewed in the delta sketch — plus a 3σ Poisson margin so small
	// batches' sampling noise does not masquerade as fresh skew.
	scaled := float64(mem) * float64(len(batch.Append)) / float64(maxInt(n, 1))
	dm := int(scaled + 3*math.Sqrt(scaled))
	deltaSketch := sketch.BuildExact(deltaRel, m.cfg.Workers, maxInt(dm, 1))
	return sketch.Drift(m.baseSketch, deltaSketch)
}

// locateDeletes resolves the batch's deleted tuples to positions in the
// relation (multiset semantics), failing on absent tuples.
func (m *Maintainer) locateDeletes(dels []relation.Tuple) (map[int]bool, error) {
	if len(dels) == 0 {
		return nil, nil
	}
	d := m.rel.D()
	byKey := make(map[string][]int)
	var buf []byte
	for i, t := range m.rel.Tuples {
		buf = relation.EncodeTuple(buf[:0], t)
		byKey[string(buf)] = append(byKey[string(buf)], i)
	}
	idx := make(map[int]bool, len(dels))
	for i, t := range dels {
		if len(t.Dims) != d {
			return nil, fmt.Errorf("delta: delete tuple %d has %d dims, schema has %d", i, len(t.Dims), d)
		}
		buf = relation.EncodeTuple(buf[:0], t)
		avail := byKey[string(buf)]
		if len(avail) == 0 {
			return nil, fmt.Errorf("delta: delete tuple %d not present in relation", i)
		}
		idx[avail[len(avail)-1]] = true
		byKey[string(buf)] = avail[:len(avail)-1]
	}
	return idx, nil
}

// applyDelta computes delta cubes over the appended and deleted tuples and
// merges them into the stored cube on finals. All MR jobs complete before
// any state is mutated.
func (m *Maintainer) applyDelta(batch Batch, deleteIdx map[int]bool, rnd *Round) error {
	merge, _ := agg.FinalMerger(m.cfg.Agg)
	invert, _ := agg.FinalInverter(m.cfg.Agg)

	added, err := m.cubeOver(batch.Append, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: append job: %w", err)
	}
	deleted, err := m.cubeOver(batch.Delete, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: delete job: %w", err)
	}

	// Commit point: all jobs succeeded, mutate state — one read-modify-write
	// per touched key. touched lists each key once, so Changes is unique.
	touched := make([]string, 0, len(added)+len(deleted))
	for key, a := range added {
		touched = append(touched, key)
		g, exists := m.cube[key]
		if exists {
			a.val = merge(g.val, a.val)
		}
		m.cube[key] = group{val: a.val, cnt: g.cnt + a.cnt}
	}
	for key, dl := range deleted {
		if _, dup := added[key]; !dup {
			touched = append(touched, key)
		}
		g := m.cube[key]
		if g.cnt -= dl.cnt; g.cnt <= 0 {
			delete(m.cube, key)
		} else {
			g.val = invert(g.val, dl.val)
			m.cube[key] = g
		}
	}
	m.commitRelation(batch, deleteIdx)

	minSup := m.minSup()
	sort.Strings(touched)
	rnd.Changes = make([]Change, 0, len(touched))
	for _, key := range touched {
		if g, ok := m.cube[key]; ok && g.cnt >= minSup {
			rnd.Changes = append(rnd.Changes, Change{Key: key, Value: g.val})
		} else {
			rnd.Changes = append(rnd.Changes, Change{Key: key, Delete: true})
		}
	}
	return nil
}

// applyRebuild recomputes the full cube over the post-batch relation. All
// MR jobs complete before any state is mutated; Changes stays nil.
func (m *Maintainer) applyRebuild(batch Batch, deleteIdx map[int]bool, rnd *Round) error {
	next := &relation.Relation{Schema: m.rel.Schema, Dict: m.rel.Dict}
	next.Tuples = make([]relation.Tuple, 0, m.rel.N()+len(batch.Append)-len(deleteIdx))
	for i, t := range m.rel.Tuples {
		if !deleteIdx[i] {
			next.Tuples = append(next.Tuples, t)
		}
	}
	next.Tuples = append(next.Tuples, cloneTuples(batch.Append)...)
	if next.N() == 0 {
		return errors.New("delta: batch deletes every tuple; refusing to rebuild an empty cube")
	}

	groups, err := m.runJobs(next, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: rebuild: %w", err)
	}

	m.cube = groups
	m.rel.Tuples = next.Tuples
	m.baseSketch = sketch.BuildExact(next, m.cfg.Workers, memTuples(next.N(), m.cfg.Workers))
	return nil
}

// commitRelation applies the batch's tuple changes to the owned relation.
func (m *Maintainer) commitRelation(batch Batch, deleteIdx map[int]bool) {
	if len(deleteIdx) > 0 {
		kept := m.rel.Tuples[:0]
		for i, t := range m.rel.Tuples {
			if !deleteIdx[i] {
				kept = append(kept, t)
			}
		}
		m.rel.Tuples = kept
	}
	m.rel.Tuples = append(m.rel.Tuples, cloneTuples(batch.Append)...)
}

// cubeOver runs the maintenance jobs over a tuple batch; an empty batch has
// no groups and spins up no engine.
func (m *Maintainer) cubeOver(tuples []relation.Tuple, metrics *mr.JobMetrics) (map[string]group, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	return m.runJobs(&relation.Relation{Schema: m.rel.Schema, Tuples: tuples}, metrics)
}

// runJobs computes the full cube of rel — the value-cube job, plus a
// count-cube job when the aggregate is not itself count — appending the
// jobs' rounds to metrics.
func (m *Maintainer) runJobs(rel *relation.Relation, metrics *mr.JobMetrics) (map[string]group, error) {
	fn, err := computeFunc(m.cfg)
	if err != nil {
		return nil, err
	}
	isCount := m.cfg.Agg.Name() == "count"
	groups := make(map[string]group)
	err = m.runOne(fn, rel, m.cfg.Agg, metrics, func(key string, v float64) {
		g := group{val: v}
		if isCount {
			g.cnt = int64(v)
		}
		groups[key] = g
	})
	if err == nil && !isCount {
		err = m.runOne(fn, rel, agg.Count, metrics, func(key string, v float64) {
			g := groups[key]
			g.cnt = int64(v)
			groups[key] = g
		})
	}
	if err != nil {
		return nil, err
	}
	return groups, nil
}

// runOne executes one cube job on a fresh engine and hands every output
// record to visit.
func (m *Maintainer) runOne(fn cube.ComputeFunc, rel *relation.Relation, f agg.Func, metrics *mr.JobMetrics, visit func(key string, v float64)) error {
	eng := mr.New(mr.Config{
		Workers:          m.cfg.Workers,
		Seed:             uint64(m.cfg.Seed),
		Parallelism:      m.cfg.Parallelism,
		Faults:           m.cfg.Faults,
		MaxAttempts:      m.cfg.MaxAttempts,
		SpeculativeSlack: m.cfg.SpeculativeSlack,
		TaskTimeout:      m.cfg.TaskTimeout,
		SpillBudgetBytes: m.cfg.SpillBudgetBytes,
		SpillDir:         m.cfg.SpillDir,
		SpillCodec:       m.cfg.SpillCodec,
		MergeFanIn:       m.cfg.MergeFanIn,
		Tracer:           m.cfg.Tracer,
		Context:          m.cfg.Context,
	}, dfs.New(false))
	run, err := fn(eng, rel, cube.Spec{Agg: f})
	if err != nil {
		return err
	}
	if err := cube.ScanDFS(eng, run.OutputPrefix, visit); err != nil {
		return err
	}
	metrics.Rounds = append(metrics.Rounds, run.Metrics.Rounds...)
	return nil
}

// Result returns a snapshot of the published (iceberg-filtered) cube, sized
// by what passes the filter: an iceberg cube can publish a small fraction of
// the maintained groups.
func (m *Maintainer) Result() *cube.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	minSup := m.minSup()
	n := 0
	for _, g := range m.cube {
		if g.cnt >= minSup {
			n++
		}
	}
	out := &cube.Result{D: m.rel.D(), Groups: make(map[string]float64, n)}
	for key, g := range m.cube {
		if g.cnt >= minSup {
			out.Groups[key] = g.val
		}
	}
	return out
}

// Relation returns the maintained relation. The returned value is live:
// callers must not mutate it, and must tolerate Apply swapping its
// dictionary (old dictionary pointers stay valid and immutable).
func (m *Maintainer) Relation() *relation.Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rel
}

// N returns the maintained relation's current tuple count.
func (m *Maintainer) N() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rel.N()
}

// Version returns the number of applied maintenance cycles.
func (m *Maintainer) Version() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rounds)
}

// Rounds returns the applied cycles, oldest first.
func (m *Maintainer) Rounds() []Round {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Round(nil), m.rounds...)
}

// Metrics returns the accumulated engine metrics of every cycle, each
// round annotated with its cycle's MaintInfo (schema v3).
func (m *Maintainer) Metrics() mr.JobMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return mr.JobMetrics{Rounds: append([]mr.RoundMetrics(nil), m.metrics.Rounds...)}
}

func (m *Maintainer) minSup() int64 {
	if m.cfg.MinSup < 2 {
		return 1
	}
	return int64(m.cfg.MinSup)
}

// traceMaint emits a maintainer-scoped trace event.
func (m *Maintainer) traceMaint(ev mr.TraceEvent) {
	if m.cfg.Tracer == nil {
		return
	}
	ev.Seq = m.seq
	m.seq++
	ev.Time = time.Now()
	ev.Task = -1
	m.cfg.Tracer.TraceEvent(ev)
}

// annotate attaches the cycle's MaintInfo to every engine round it ran.
func annotate(metrics *mr.JobMetrics, info *mr.MaintInfo) {
	for i := range metrics.Rounds {
		metrics.Rounds[i].Maint = info
	}
}

// computeFunc resolves the configured algorithm through the shared table.
// Hive runs with its reducer-OOM failure disabled: maintenance must not
// wedge on a batch the model would refuse, and correctness is identical.
func computeFunc(cfg Config) (cube.ComputeFunc, error) {
	i, err := algo.ByName(cfg.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	if algo.Table[i].Name == "hive" {
		return func(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
			return hivecube.ComputeOpts(eng, rel, spec, hivecube.Options{DisableOOM: true})
		}, nil
	}
	return algo.Table[i].New(cfg.Seed), nil
}

func cloneTuples(ts []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func memTuples(n, k int) int {
	m := n / maxInt(k, 1)
	return maxInt(m, 1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
