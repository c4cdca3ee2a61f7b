// Package delta maintains a computed data cube incrementally under batches
// of appended and deleted tuples, the maintenance story HaCube brings to
// MapReduce cube computation: instead of recomputing the cube over the full
// relation per batch, run a small delta-cube MR job over just the batch and
// merge its result into the stored cube.
//
// Merging happens on the aggregate's own partial states, with the Merge
// every combiner uses (paper §5.1). The stored cube is no map: it is the last
// full build's output, read as a sorted run where the reducers wrote it — the
// job runs the aggregate counted (agg.WithCount), so every record carries its
// group's encoded state, which leads with the group's tuple count, beside the
// final — under an overlay of the states of the groups batches have touched
// since. A batch's appended and deleted tuples are cubed by the same job; a
// touched group's state merges the appended part's state in and, for the
// aggregates whose states invert (agg.Invertible: count, sum, avg, var,
// stddev), takes the deleted part's out, and its published value is the
// merged state's final: bit for bit what a recompute publishes. Deletes under
// min, max and distinct, which have no inverse (deleting the minimum reveals
// an unknown runner-up), are the one case that falls back to a full rebuild:
// every other batch merges, whatever its size or distribution, since the
// stored cube is a sorted run keyed by group and nothing reads the partition
// decisions of the job that built it. The decision and its reason are
// recorded on every cycle, annotated into the engine metrics ("maint" rounds)
// and emitted as maint-start/maint-end trace events.
//
// Deletes are counted: every state carries its group's tuple count, so a
// group whose count reaches zero becomes a tombstone in the overlay rather
// than staying at a stale value, and iceberg thresholds (MinSup) are
// re-evaluated per cycle against the maintained counts.
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
)

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
	// Parallelism, Seed, Faults and MaxAttempts configure the engines the
	// maintenance jobs run on, with mr.Config semantics.
	Parallelism int
	Seed        int64
	Faults      *mr.FaultPlan
	MaxAttempts int
	// SpillBudgetBytes, SpillDir, SpillCodec and MergeFanIn configure the
	// engines' out-of-core shuffle, with mr.Config semantics (0 keeps
	// everything in memory; empty codec means raw; 0 fan-in means the
	// engine default).
	SpillBudgetBytes int64
	SpillDir         string
	SpillCodec       string
	MergeFanIn       int
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
	// Mode is "delta" or "rebuild"; Reason explains the choice:
	// "mergeable", or "deletes" for a batch that deletes under an aggregate
	// whose states do not invert.
	Mode   string
	Reason string
	// Drift is always 0.
	//
	// Deprecated: the maintainer no longer measures sketch drift; the field
	// stays only because the benchmark harness still reads it.
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
	// since — a group of the base at its new state, a group the base lacks,
	// or a tombstone (count 0) for one whose last tuple was deleted — and
	// supersedes the base key by key; a rebuild replaces the base and
	// empties it. Its states are never written once stored, so a snapshot of
	// it stays valid. It is never folded back: it holds at most the groups
	// the batches since the last build project to, each of which the state
	// map this design replaced held as well.
	base    *cube.SortedRun
	overlay map[string]agg.State

	// built times the stages of that build.
	built Timing

	metrics mr.JobMetrics
	cycles  int   // applied maintenance cycles; a cycle's changes are its caller's
	seq     int64 // maintainer-scoped trace sequence
}

// Timing splits a full (re)build into its stages.
type Timing struct {
	// Job is the cube computation: one MR job, whose records carry every
	// group's state, and so its tuple count, beside its value.
	Job time.Duration
	// Index is the collection of the job's output into a sorted run.
	Index time.Duration
}

// keyed is a maintained c-group's state with its encoded key.
type keyed struct {
	key []byte
	st  agg.State
}

// count returns the number of tuples a maintained state folds in: they are
// counted (agg.WithCount) or count's.
func count(st agg.State) int64 {
	n, _ := agg.Cardinality(st)
	return n
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
		Records: int64(m.base.Len())})
	return m, nil
}

// rebuild computes the full cube of rel and, once its job has succeeded,
// makes it the base: the overlay empties.
func (m *Maintainer) rebuild(rel *relation.Relation, metrics *mr.JobMetrics) error {
	var t Timing
	base, err := m.runJob(rel, metrics, &t)
	if err != nil {
		return err
	}
	m.base, m.overlay, m.built = base, make(map[string]agg.State), t
	return nil
}

// Apply runs one maintenance cycle over the batch. On error the maintained
// cube and relation are unchanged.
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
		Round:    m.cycles + 1,
		Appended: len(batch.Append),
		Deleted:  len(batch.Delete),
	}
	rnd.Mode, rnd.Reason = m.decide(batch)
	info := &mr.MaintInfo{
		Round: rnd.Round, Mode: rnd.Mode, Reason: rnd.Reason,
		Appended: rnd.Appended, Deleted: rnd.Deleted,
	}
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintStart, Round: rnd.Round, Job: "maintenance",
		Mode: rnd.Mode, Records: int64(rnd.Appended), Bytes: int64(rnd.Deleted)})

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
	m.cycles++
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintEnd, Round: rnd.Round, Job: "maintenance",
		Records: int64(len(rnd.Changes))})
	out := rnd
	return &out, nil
}

// decide picks the cycle's mode: a batch merges unless it deletes under an
// aggregate whose states do not invert.
func (m *Maintainer) decide(batch Batch) (mode, reason string) {
	if len(batch.Delete) > 0 && !agg.Invertible(m.cfg.Agg) {
		return "rebuild", "deletes"
	}
	return "delta", "mergeable"
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
// merges their states into the stored cube's. All MR jobs complete, and every
// state is read, before any state is mutated.
func (m *Maintainer) applyDelta(batch Batch, deleteIdx map[int]bool, rnd *Round) error {
	adds, err := m.cubeOver(batch.Append, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: append job: %w", err)
	}
	dels, err := m.cubeOver(batch.Delete, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: delete job: %w", err)
	}

	// All jobs succeeded: one fresh state per touched key, the two delta
	// cubes merged in key order. That order is what lets one forward cursor
	// read the base (an independent search of its files per key costs some
	// fifteen times a map probe) and what Changes is published in.
	fn, base := agg.WithCount(m.cfg.Agg), m.base.Cursor()
	rnd.Changes = make([]Change, 0, len(adds)+len(dels))
	states := make([]agg.State, 0, cap(rnd.Changes))
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
		var a, dl agg.State
		if side <= 0 {
			key, a, adds = adds[0].key, adds[0].st, adds[1:]
		}
		if side >= 0 {
			key, dl, dels = dels[0].key, dels[0].st, dels[1:]
		}
		// A copy of the group's state — the overlay's, which is never
		// written, else the base's — takes the batch's; a group neither
		// holds takes the batch's own.
		var st agg.State
		if old, touched := m.overlay[string(key)]; touched {
			st = fn.NewState()
			st.Merge(old)
		} else if state, ok := base.Seek(key); ok {
			if st, err = fn.DecodeState(state); err != nil {
				return fmt.Errorf("delta: base state: %w", err)
			}
		}
		switch {
		case st == nil:
			st = a
		case a != nil:
			st.Merge(a)
		}
		if dl != nil {
			st.(agg.Inverter).Unmerge(dl)
		}
		rnd.Changes = append(rnd.Changes, Change{Key: string(key)})
		states = append(states, st)
	}

	// Commit point: mutate state.
	minSup := m.minSup()
	for i, st := range states {
		ch := &rnd.Changes[i]
		if count(st) >= minSup {
			ch.Value = st.Final()
		} else {
			ch.Delete = true
		}
		m.overlay[ch.Key] = st
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

// cubeOver runs the maintenance job over a tuple batch and lists the batch's
// cube's states in ascending key order, the keys aliasing the job's output;
// an empty batch has no groups and spins up no engine.
func (m *Maintainer) cubeOver(tuples []relation.Tuple, metrics *mr.JobMetrics) ([]keyed, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	run, err := m.runJob(&relation.Relation{Schema: m.rel.Schema, Tuples: tuples}, metrics, new(Timing))
	if err != nil {
		return nil, err
	}
	fn := agg.WithCount(m.cfg.Agg)
	out := make([]keyed, 0, run.Len())
	run.EachState(func(key, state []byte) bool {
		var st agg.State
		if st, err = fn.DecodeState(state); err != nil {
			return false
		}
		out = append(out, keyed{key, st})
		return true
	})
	return out, err
}

// runJob computes the full cube of rel on a fresh engine — one job, of the
// aggregate counted, so that every record carries its group's state and tuple
// count —
// appending its rounds to metrics and its time to t. It indexes the output
// where the reducers wrote it, as one merged segment: a base is read at every
// key a batch touches for as long as it stands, which that makes one search
// per key instead of one per output file, and a batch's cube is too small for
// the merge to show.
func (m *Maintainer) runJob(rel *relation.Relation, metrics *mr.JobMetrics, t *Timing) (*cube.SortedRun, error) {
	fn, err := computeFunc(m.cfg)
	if err != nil {
		return nil, err
	}
	eng := mr.New(mr.Config{
		Workers:          m.cfg.Workers,
		Seed:             uint64(m.cfg.Seed),
		Parallelism:      m.cfg.Parallelism,
		Faults:           m.cfg.Faults,
		MaxAttempts:      m.cfg.MaxAttempts,
		SpillBudgetBytes: m.cfg.SpillBudgetBytes,
		SpillDir:         m.cfg.SpillDir,
		SpillCodec:       m.cfg.SpillCodec,
		MergeFanIn:       m.cfg.MergeFanIn,
		Tracer:           m.cfg.Tracer,
		Context:          m.cfg.Context,
	}, dfs.New(false))
	start := time.Now()
	spec := cube.Spec{Agg: agg.WithCount(m.cfg.Agg)}
	run, err := fn(eng, rel, spec)
	if err != nil {
		return nil, err
	}
	computed := time.Now()
	out, err := cube.CollectRun(eng, run.OutputPrefix, rel.D(), spec)
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
// returns false, with cube.SortedRun.Each's callback and aliasing rules and
// every group's tuple count. It walks a snapshot: a cycle applied meanwhile
// does not show.
func (m *Maintainer) Published(fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64, count int64) bool) {
	m.mu.Lock()
	base, minSup := m.base, m.minSup()
	over := make([]keyed, 0, len(m.overlay))
	for key, st := range m.overlay {
		over = append(over, keyed{[]byte(key), st})
	}
	m.mu.Unlock()
	slices.SortFunc(over, func(a, b keyed) int { return bytes.Compare(a.key, b.key) })

	var scratch []relation.Value
	publish := func(e keyed) bool {
		n := count(e.st)
		if n < minSup {
			return true
		}
		var mask uint32
		mask, scratch, _, _ = relation.ScanGroupKeyInto(scratch, e.key) // a key a job wrote
		return fn(e.key, lattice.Mask(mask), scratch, e.st.Final(), n)
	}
	more := true
	base.Each(func(key []byte, mask lattice.Mask, packed []relation.Value, v float64, n int64) bool {
		for more && len(over) > 0 {
			c := bytes.Compare(over[0].key, key)
			if c > 0 {
				break
			}
			if c == 0 { // the overlay supersedes the base
				v, n = over[0].st.Final(), count(over[0].st)
			} else {
				more = publish(over[0])
			}
			over = over[1:]
		}
		if more && n >= minSup {
			more = fn(key, mask, packed, v, n)
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
	m.Published(func(key []byte, _ lattice.Mask, _ []relation.Value, v float64, _ int64) bool {
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
	return m.cycles
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
