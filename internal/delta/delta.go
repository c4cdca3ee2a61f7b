// Package delta maintains a computed data cube incrementally under batches
// of appended and deleted tuples, the maintenance story HaCube brings to
// MapReduce cube computation: instead of recomputing the cube over the full
// relation per batch, run a small delta-cube MR job over just the batch and
// merge its result into the stored cube.
//
// Merging happens on *final* aggregate values. The stored cube holds no
// partial states and is no map: it is the last full build's output, read as
// a sorted run where the reducers wrote it (a second run carries the tuple
// counts when the aggregate is not count), under an overlay of the groups
// batches have touched since. That is sound exactly for the functions whose
// finals are themselves distributive: count and sum finals add (and
// subtract, so deletes work), min and max finals combine by extreme (appends
// only — deleting the minimum reveals an unknown runner-up). For every other
// aggregate, and for batches whose SP-Sketch has drifted too far from the
// base sketch (the partitioning decisions of the base cube no longer
// describe the merged relation), the maintainer falls back to a full
// rebuild. The decision, its reason and the measured drift are recorded on
// every cycle, annotated into the engine metrics (schema v3 "maint"
// rounds) and emitted as maint-start/maint-end trace events.
//
// Deletes are counted: the maintainer keeps every group's tuple count next
// to its value, so a group whose count reaches zero becomes a tombstone in
// the overlay rather than staying at a stale value, and iceberg thresholds (MinSup) are re-evaluated
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
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
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

	// base is the full (non-iceberg) cube as of the last full (re)build,
	// read where that build's reducers wrote it and never written again.
	// overlay holds the current state of every group a batch has touched
	// since — a group of the base at its new value, a group the base lacks,
	// or a tombstone (cnt 0) for one whose last tuple was deleted — and
	// supersedes the base key by key; a rebuild replaces the base and
	// empties it. It is never folded back: it holds at most the groups the
	// batches since the last build project to, each of which the state map
	// this design replaced held as well.
	base    cubeRuns
	overlay map[string]group

	// baseSketch is the SP-Sketch of the relation as of the last full
	// (re)build; batch drift is measured against it.
	baseSketch *sketch.Sketch
	// built times the stages of that build.
	built Timing

	metrics mr.JobMetrics
	rounds  []Round
	seq     int64 // maintainer-scoped trace sequence
}

// Timing splits a full (re)build into its stages.
type Timing struct {
	// Job is the cube computation: one MR job, or two (values, counts) when
	// the aggregate is not count.
	Job time.Duration
	// Index is the collection of the jobs' output into sorted runs.
	Index time.Duration
	// Sketch is the exact base sketch of the relation.
	Sketch time.Duration
}

// group is one maintained c-group: its final aggregate value and the number
// of tuples contributing to it. No group has cnt 0: the zero group stands
// for an absent one, and is an overlay's tombstone.
type group struct {
	val float64
	cnt int64
}

// keyed is a group with its encoded key.
type keyed struct {
	key []byte
	group
}

// cubeRuns is the cube one runJobs call computed, as the jobs left it: every
// group's final value and, in a second run over the same keys, its tuple
// count.
type cubeRuns struct {
	vals   *cube.SortedRun
	counts *cube.SortedRun // nil when the aggregate is count: the value is the count
}

// cubeReader reads groups out of a cubeRuns at ascending keys.
type cubeReader struct{ vals, counts *cube.Cursor }

func (c cubeRuns) reader() cubeReader {
	r := cubeReader{vals: c.vals.Cursor()}
	if c.counts != nil {
		r.counts = c.counts.Cursor()
	}
	return r
}

// at returns the group stored under key, the zero group when there is none.
func (r cubeReader) at(key []byte) group {
	v, ok := r.vals.Seek(key)
	if !ok {
		return group{}
	}
	return r.group(key, v)
}

// group pairs a value read at key with the key's count.
func (r cubeReader) group(key []byte, v float64) group {
	if r.counts == nil {
		return group{val: v, cnt: int64(v)}
	}
	n, _ := r.counts.Seek(key)
	return group{val: v, cnt: int64(n)}
}

// each calls fn for every group in ascending key order until fn returns
// false, with cube.SortedRun.Each's aliasing rules.
func (c cubeRuns) each(fn func(key []byte, mask lattice.Mask, packed []relation.Value, g group) bool) {
	r := c.reader()
	c.vals.Each(func(key []byte, mask lattice.Mask, packed []relation.Value, v float64) bool {
		return fn(key, mask, packed, r.group(key, v))
	})
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
	if err := m.rebuild(own, &metrics); err != nil {
		m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: 0, Job: "maintenance",
			Failed: true, Err: err.Error()})
		return nil, err
	}
	annotate(&metrics, info)
	m.metrics.Rounds = append(m.metrics.Rounds, metrics.Rounds...)
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: 0, Job: "maintenance",
		Records: int64(m.base.vals.Len())})
	return m, nil
}

// rebuild computes the full cube of rel and, once its jobs have succeeded,
// makes it the base: the overlay empties and the base sketch is rel's.
func (m *Maintainer) rebuild(rel *relation.Relation, metrics *mr.JobMetrics) error {
	var t Timing
	base, err := m.runJobs(rel, metrics, &t)
	if err != nil {
		return err
	}
	m.base, m.overlay = base, make(map[string]group)
	start := time.Now()
	m.baseSketch = sketch.BuildExact(rel, m.cfg.Workers, memTuples(rel.N(), m.cfg.Workers))
	t.Sketch = time.Since(start)
	m.built = t
	return nil
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

	adds, err := m.cubeOver(batch.Append, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: append job: %w", err)
	}
	dels, err := m.cubeOver(batch.Delete, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: delete job: %w", err)
	}

	// Commit point: all jobs succeeded, mutate state — one read-modify-write
	// per touched key, the two delta cubes merged in key order. That order is
	// what lets one forward cursor read the base (an independent search of
	// its files per key costs some fifteen times a map probe) and what
	// Changes is published in.
	base, minSup := m.base.reader(), m.minSup()
	rnd.Changes = make([]Change, 0, len(adds)+len(dels))
	for len(adds) > 0 || len(dels) > 0 {
		var side int // of the next key: below 0 appended only, above 0 deleted only
		switch {
		case len(dels) == 0:
			side = -1
		case len(adds) == 0:
			side = 1
		default:
			side = bytes.Compare(adds[0].key, dels[0].key)
		}
		var key []byte
		var a, dl group
		if side <= 0 {
			key, a, adds = adds[0].key, adds[0].group, adds[1:]
		}
		if side >= 0 {
			key, dl, dels = dels[0].key, dels[0].group, dels[1:]
		}
		g, touched := m.overlay[string(key)]
		if !touched {
			g = base.at(key)
		}
		if a.cnt > 0 {
			if g.cnt > 0 {
				a.val = merge(g.val, a.val)
			}
			g = group{val: a.val, cnt: g.cnt + a.cnt}
		}
		if dl.cnt > 0 {
			if g.cnt -= dl.cnt; g.cnt <= 0 {
				g = group{}
			} else {
				g.val = invert(g.val, dl.val)
			}
		}
		ch := Change{Key: string(key), Delete: true}
		if g.cnt >= minSup {
			ch = Change{Key: ch.Key, Value: g.val}
		}
		m.overlay[ch.Key] = g
		rnd.Changes = append(rnd.Changes, ch)
	}
	m.commitRelation(batch, deleteIdx)
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
	if err := m.rebuild(next, &rnd.Metrics); err != nil {
		return fmt.Errorf("delta: rebuild: %w", err)
	}
	m.rel.Tuples = next.Tuples
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

// cubeOver runs the maintenance jobs over a tuple batch and lists the batch's
// cube in ascending key order, the keys aliasing the jobs' output; an empty
// batch has no groups and spins up no engine.
func (m *Maintainer) cubeOver(tuples []relation.Tuple, metrics *mr.JobMetrics) ([]keyed, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	runs, err := m.runJobs(&relation.Relation{Schema: m.rel.Schema, Tuples: tuples}, metrics, new(Timing))
	if err != nil {
		return nil, err
	}
	out := make([]keyed, 0, runs.vals.Len())
	runs.each(func(key []byte, _ lattice.Mask, _ []relation.Value, g group) bool {
		out = append(out, keyed{key, g})
		return true
	})
	return out, nil
}

// runJobs computes the full cube of rel — the value-cube job, plus a
// count-cube job when the aggregate is not itself count — appending the
// jobs' rounds to metrics and their time to t.
func (m *Maintainer) runJobs(rel *relation.Relation, metrics *mr.JobMetrics, t *Timing) (cubeRuns, error) {
	fn, err := computeFunc(m.cfg)
	if err != nil {
		return cubeRuns{}, err
	}
	var out cubeRuns
	if out.vals, err = m.runOne(fn, rel, m.cfg.Agg, metrics, t); err != nil {
		return cubeRuns{}, err
	}
	if m.cfg.Agg.Name() != "count" {
		if out.counts, err = m.runOne(fn, rel, agg.Count, metrics, t); err != nil {
			return cubeRuns{}, err
		}
	}
	return out, nil
}

// runOne executes one cube job on a fresh engine and indexes its output
// where the reducers wrote it, as one merged segment: a base is read at every
// key a batch touches for as long as it stands, which that makes one search
// per key instead of one per output file, and a batch's cube is too small for
// the merge to show.
func (m *Maintainer) runOne(fn cube.ComputeFunc, rel *relation.Relation, f agg.Func, metrics *mr.JobMetrics, t *Timing) (*cube.SortedRun, error) {
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
	start := time.Now()
	run, err := fn(eng, rel, cube.Spec{Agg: f})
	if err != nil {
		return nil, err
	}
	computed := time.Now()
	out, err := cube.CollectRun(eng, run.OutputPrefix, rel.D())
	if err != nil {
		return nil, err
	}
	out = out.Merged()
	t.Job += computed.Sub(start)
	t.Index += time.Since(computed)
	metrics.Rounds = append(metrics.Rounds, run.Metrics.Rounds...)
	return out, nil
}

// Published calls fn for every group of the published (iceberg-filtered)
// cube — the base under its overlay — in ascending key order until fn
// returns false, with cube.SortedRun.Each's callback and aliasing rules. It
// walks a snapshot: a cycle applied meanwhile does not show.
func (m *Maintainer) Published(fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64) bool) {
	m.mu.Lock()
	base, minSup := m.base, m.minSup()
	over := make([]keyed, 0, len(m.overlay))
	for key, g := range m.overlay {
		over = append(over, keyed{[]byte(key), g})
	}
	m.mu.Unlock()
	slices.SortFunc(over, func(a, b keyed) int { return bytes.Compare(a.key, b.key) })

	var scratch []relation.Value
	publish := func(e keyed) bool {
		if e.cnt < minSup {
			return true
		}
		var mask uint32
		mask, scratch, _, _ = relation.ScanGroupKeyInto(scratch, e.key) // a key a job wrote
		return fn(e.key, lattice.Mask(mask), scratch, e.val)
	}
	more := true
	base.each(func(key []byte, mask lattice.Mask, packed []relation.Value, g group) bool {
		for more && len(over) > 0 {
			c := bytes.Compare(over[0].key, key)
			if c > 0 {
				break
			}
			if c == 0 {
				g = over[0].group // the overlay supersedes the base
			} else {
				more = publish(over[0])
			}
			over = over[1:]
		}
		if more && g.cnt >= minSup {
			more = fn(key, mask, packed, g.val)
		}
		return more
	})
	for ; more && len(over) > 0; over = over[1:] {
		more = publish(over[0])
	}
}

// Result returns a snapshot of the published cube as a map: Published,
// collected. It is the oracle's and the harness's view — and spcube
// -delta's, which writes it out once — not what a server is built from. The
// keys are substrings of one string: a million keys allocated one by one cost
// the garbage collector more than the walk costs.
func (m *Maintainer) Result() *cube.Result {
	type entry struct {
		end int // of the key in keys
		val float64
	}
	var keys []byte
	var entries []entry
	m.Published(func(key []byte, _ lattice.Mask, _ []relation.Value, v float64) bool {
		keys = append(keys, key...)
		entries = append(entries, entry{len(keys), v})
		return true
	})
	out := &cube.Result{D: m.Relation().D(), Groups: make(map[string]float64, len(entries))}
	all, start := string(keys), 0
	for _, e := range entries {
		out.Groups[all[start:e.end]] = e.val
		start = e.end
	}
	return out
}

// LastBuild returns the stage times of the last full (re)build.
func (m *Maintainer) LastBuild() Timing {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.built
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
