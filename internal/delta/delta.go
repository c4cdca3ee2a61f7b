// Package delta maintains a computed data cube incrementally under batches
// of appended and deleted tuples, the maintenance story HaCube brings to
// MapReduce cube computation: instead of recomputing the cube over the full
// relation per batch, run a small delta-cube MR job over just the batch and
// merge its result into the stored cube.
//
// Merging happens on the aggregate's own partial states, with the Merge
// every combiner uses (paper §5.1). The stored cube is no map: it is the
// initial build's output, read as a sorted run where the reducers wrote it — the
// job runs the aggregate counted (agg.WithCount), so every record carries its
// group's encoded state, which leads with the group's tuple count, beside the
// final — under an overlay of the states of the groups batches have touched
// since. Under an iceberg threshold (MinSup) the build keeps only the groups
// it publishes: the stored cube is bounded by the output, not the lattice.
//
// A batch's appended and deleted tuples are cubed by the same job; a touched
// group's state merges the appended part's state in and, for the aggregates
// whose states invert (agg.Invertible: count, sum, avg, var, stddev), takes
// the deleted part's out, and its published value is the merged state's
// final: bit for bit what a recompute publishes. A touched group whose
// pre-batch state the maintainer cannot state is recomputed instead, by one
// more round over the tuples the batch keeps, and the appended part's state
// merges into the round's: a group a delete touches under min, max or
// distinct, which have no inverse (deleting the minimum reveals an unknown
// runner-up), and, under an iceberg, a group neither the stored cube nor the
// overlay holds, whose count was below MinSup when it was last known. Every batch is applied this one
// way, whatever its size or distribution, since the stored cube is a sorted
// run keyed by group and nothing reads the partition decisions of the job
// that built it. A cycle's reason ("mergeable" or "recompute", the latter for
// a batch that deletes under min, max or distinct) is recorded, annotated
// into the engine metrics ("maint" rounds) and emitted as
// maint-start/maint-end trace events.
//
// Deletes are counted: every state carries its group's tuple count, so a
// group whose count reaches zero leaves the cube rather than staying at a
// stale value (a group of the stored cube as a tombstone in the overlay),
// and iceberg thresholds (MinSup) are re-evaluated per cycle against the
// maintained counts.
//
// The maintainer is deliberately storage-agnostic: Apply returns the exact
// set of changed c-groups, and the serving layer turns that into an atomic
// in-place index patch. All MR jobs of a cycle run before any state is
// mutated, so a failed cycle (injected faults with exhausted retries) leaves
// the maintained cube — and anything serving it — untouched.
package delta

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
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
	// Algorithm names the cube algorithm used for the initial build and the
	// delta jobs: any name or alias in algo.Table (default sp-cube).
	Algorithm string
	// Agg is the maintained aggregate (default count).
	Agg agg.Func
	// MinSup is the published iceberg threshold: Result and Apply's change
	// lists expose only groups with at least MinSup contributing tuples
	// (values below 2 publish the full cube). The initial build keeps only
	// the published groups; a group a batch lifts across the threshold is
	// recomputed from the relation, so groups still cross it in either
	// direction across batches.
	MinSup int
	// Workers is the simulated cluster size (default 8).
	Workers int
	// Parallelism, Seed and Faults configure the engines the maintenance
	// jobs run on, with mr.Config semantics.
	Parallelism int
	Seed        int64
	Faults      *mr.FaultPlan
	// SpillBudgetBytes, SpillDir and SpillCodec configure the engines'
	// out-of-core shuffle, with mr.Config semantics (0 keeps everything in
	// memory; empty codec means raw).
	SpillBudgetBytes int64
	SpillDir         string
	SpillCodec       string
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
	// Mode is "delta" for every applied cycle ("rebuild" is the initial
	// build's, in its metrics annotation only). Reason is "mergeable", or
	// "recompute" for a batch that deletes under an aggregate whose states
	// do not invert. Under an iceberg a mergeable cycle also runs the
	// recompute round when it touches a group the maintainer does not hold.
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
	// key; it is never nil.
	Changes []Change
	// Metrics holds the cycle's MR rounds, annotated with MaintInfo.
	Metrics mr.JobMetrics
}

// Maintainer owns a relation and its maintained cube. All methods are safe
// for concurrent use; Apply serializes cycles.
type Maintainer struct {
	mu      sync.Mutex
	cfg     Config
	compute cube.ComputeFunc // the configured algorithm
	rel     *relation.Relation

	// base is the published cube as of the initial build — every group
	// under MinSup below 2, else the groups with at least MinSup tuples —
	// each at its exact counted state, read where that build's reducers
	// wrote it and never written again. overlay holds the exact current
	// state of every group a batch has touched since that is published or
	// that the base holds — a group of the base at its new state (a
	// tombstone, count 0, for one whose last tuple was deleted) or a
	// published group the base lacks — and supersedes the base key by key.
	// A group neither holds has fewer than MinSup tuples (under no iceberg,
	// none). The overlay's states are never written once stored, so a
	// snapshot of it stays valid. It is never folded back: it holds at most
	// the published groups and the base's keys.
	base    *cube.SortedRun
	overlay map[string]agg.State

	// built times the stages of that build.
	built Timing

	metrics mr.JobMetrics
	cycles  int   // applied maintenance cycles; a cycle's changes are its caller's
	seq     int64 // maintainer-scoped trace sequence
}

// Timing splits the initial build into its stages.
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

// New builds the initial cube over rel (cycle 0: the published cube, with
// every group's counted state) and returns a maintainer owning a private copy
// of the relation; the caller's rel is not retained.
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
	compute, err := computeFunc(cfg)
	if err != nil {
		return nil, err
	}

	own := &relation.Relation{
		Schema: rel.Schema,
		Tuples: append([]relation.Tuple(nil), rel.Tuples...),
	}
	if rel.Dict != nil {
		own.Dict = rel.Dict.Clone()
	}
	m := &Maintainer{cfg: cfg, compute: compute, rel: own, overlay: make(map[string]agg.State)}
	info := &mr.MaintInfo{Round: 0, Mode: "rebuild", Reason: "initial", Appended: own.N()}
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintStart, Round: 0, Job: "maintenance",
		Mode: info.Mode, Records: int64(own.N())})
	var metrics mr.JobMetrics
	if m.base, err = m.runJob(compute, own, cfg.MinSup, &metrics, &m.built); err != nil {
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

// ErrInvalidBatch is wrapped by every error that rejects a batch for what it
// holds: a row of the wrong width, a deleted value or tuple the relation
// lacks, or no rows at all. Any other error of Apply or ApplyStrings is the
// maintainer's own — a cancelled context, a failed job, spill I/O.
var ErrInvalidBatch = errors.New("delta: invalid batch")

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
			return nil, fmt.Errorf("%w: append row %d has %d dims, schema has %d", ErrInvalidBatch, i, len(row.Dims), d)
		}
		enc := make([]relation.Value, d)
		for j, s := range row.Dims {
			enc[j] = dict.Encode(j, s)
		}
		batch.Append = append(batch.Append, relation.Tuple{Dims: enc, Measure: row.Measure})
	}
	for i, row := range deletes {
		if len(row.Dims) != d {
			return nil, fmt.Errorf("%w: delete row %d has %d dims, schema has %d", ErrInvalidBatch, i, len(row.Dims), d)
		}
		enc := make([]relation.Value, d)
		for j, s := range row.Dims {
			code, ok := dict.Code(j, s)
			if !ok {
				return nil, fmt.Errorf("%w: delete row %d: unknown value %q in dimension %d", ErrInvalidBatch, i, s, j)
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
			return nil, fmt.Errorf("%w: append tuple %d has %d dims, schema has %d", ErrInvalidBatch, i, len(t.Dims), d)
		}
	}
	deleteIdx, err := m.locateDeletes(batch.Delete)
	if err != nil {
		return nil, err
	}
	if len(batch.Append) == 0 && len(batch.Delete) == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrInvalidBatch)
	}

	rnd := Round{
		Round:    m.cycles + 1,
		Mode:     "delta",
		Reason:   "mergeable",
		Appended: len(batch.Append),
		Deleted:  len(batch.Delete),
	}
	if len(batch.Delete) > 0 && !agg.Invertible(m.cfg.Agg) {
		rnd.Reason = "recompute"
	}
	info := &mr.MaintInfo{
		Round: rnd.Round, Mode: rnd.Mode, Reason: rnd.Reason,
		Appended: rnd.Appended, Deleted: rnd.Deleted,
	}
	m.traceMaint(mr.TraceEvent{Type: mr.EvMaintStart, Round: rnd.Round, Job: "maintenance",
		Mode: rnd.Mode, Records: int64(rnd.Appended), Bytes: int64(rnd.Deleted)})

	if applyErr := m.applyDelta(batch, deleteIdx, &rnd); applyErr != nil {
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

// locateDeletes resolves the batch's deleted tuples to positions in the
// relation, ascending, failing on absent tuples. Under multiset semantics a
// tuple deleted j times loses its last j occurrences: one scan from the
// relation's end, probing an index of the deleted tuples' encodings, finds
// them and allocates nothing per relation row.
func (m *Maintainer) locateDeletes(dels []relation.Tuple) ([]int, error) {
	if len(dels) == 0 {
		return nil, nil
	}
	d := m.rel.D()
	want := make(map[string]int, len(dels)) // occurrences still to find
	var buf []byte
	for i, t := range dels {
		if len(t.Dims) != d {
			return nil, fmt.Errorf("%w: delete tuple %d has %d dims, schema has %d", ErrInvalidBatch, i, len(t.Dims), d)
		}
		buf = relation.EncodeTuple(buf, t)
		want[string(buf)]++
	}
	idx := make([]int, 0, len(dels))
	for i := len(m.rel.Tuples) - 1; i >= 0 && len(idx) < len(dels); i-- {
		buf = relation.EncodeTuple(buf, m.rel.Tuples[i])
		if want[string(buf)] > 0 {
			want[string(buf)]--
			idx = append(idx, i)
		}
	}
	if len(idx) < len(dels) {
		// The last deletes of a tuple past its occurrences find none; the
		// first of all those fails the batch.
		first := 0
		for i := len(dels) - 1; i >= 0; i-- {
			buf = relation.EncodeTuple(buf, dels[i])
			if want[string(buf)] > 0 {
				want[string(buf)]--
				first = i
			}
		}
		return nil, fmt.Errorf("%w: delete tuple %d not present in relation", ErrInvalidBatch, first)
	}
	slices.Reverse(idx)
	return idx, nil
}

// applyDelta computes delta cubes over the appended and deleted tuples and
// merges their states into the stored cube's. A touched key whose pre-batch
// state the maintainer cannot state is recomputed instead: one a delete
// touches under an aggregate whose states do not invert, and, under an
// iceberg, one neither the base nor the overlay holds. All MR jobs complete,
// and every state is read, before any state is mutated.
func (m *Maintainer) applyDelta(batch Batch, deleteIdx []int, rnd *Round) error {
	adds, err := m.cubeOver(batch.Append, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: append job: %w", err)
	}
	dels, err := m.cubeOver(batch.Delete, &rnd.Metrics)
	if err != nil {
		return fmt.Errorf("delta: delete job: %w", err)
	}

	// One fresh state per touched key, the two delta cubes merged in key
	// order. That order is what lets one forward cursor read the base (an
	// independent search of its files per key costs some fifteen times a map
	// probe) and what Changes is published in. A key to recompute holds its
	// appended part here, and its position joins unknown.
	fn, base := agg.WithCount(m.cfg.Agg), m.base.Cursor()
	invertible, iceberg := agg.Invertible(m.cfg.Agg), m.minSup() > 1
	rnd.Changes = make([]Change, 0, len(adds)+len(dels))
	states := make([]agg.State, 0, cap(rnd.Changes))
	var unknown []int // positions in states
	var keys []string // of unknown
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
		rnd.Changes = append(rnd.Changes, Change{Key: string(key)})
		// A copy of the group's state — the overlay's, which is never
		// written, else the base's — takes the batch's. A group neither
		// holds has no tuple, unless the base is an iceberg's: then it
		// may have fewer than MinSup.
		var st agg.State
		known := false
		if dl == nil || invertible {
			if old, touched := m.overlay[string(key)]; touched {
				st, known = fn.NewState(), true
				st.Merge(old)
			} else if state, ok := base.Seek(key); ok {
				if st, err = fn.DecodeState(state); err != nil {
					return fmt.Errorf("delta: base state: %w", err)
				}
				known = true
			} else {
				known = !iceberg
			}
		}
		switch {
		case st == nil:
			st = a
		case a != nil:
			st.Merge(a)
		}
		if !known {
			unknown, keys = append(unknown, len(states)), append(keys, rnd.Changes[len(states)].Key)
		} else if dl != nil {
			st.(agg.Inverter).Unmerge(dl)
		}
		states = append(states, st)
	}

	next := m.postBatch(batch, deleteIdx)
	if len(keys) > 0 {
		// The round recomputes the keys over the tuples the batch keeps,
		// and their appended parts merge in: the post-batch relation's
		// states, without folding the batch twice. A key with no kept and
		// no appended tuple is left empty.
		kept := &relation.Relation{Schema: m.rel.Schema, Tuples: next[:len(next)-len(batch.Append)]}
		recs, err := m.states(recomputeJob(keys, kept.D()), kept, &rnd.Metrics)
		if err != nil {
			return fmt.Errorf("delta: recompute round: %w", err)
		}
		for _, i := range unknown {
			st := fn.NewState()
			if len(recs) > 0 && string(recs[0].key) == rnd.Changes[i].Key {
				st, recs = recs[0].st, recs[1:]
			}
			if states[i] != nil {
				st.Merge(states[i])
			}
			states[i] = st
		}
	}

	// Commit point: mutate state. The overlay keeps a touched group's state
	// only if the group is published or the base holds it, so that the state
	// supersedes the base's; any other group has fewer than MinSup tuples.
	minSup, held := m.minSup(), m.base.Cursor()
	var key []byte
	for i, st := range states {
		ch := &rnd.Changes[i]
		if count(st) >= minSup {
			ch.Value = st.Final()
			m.overlay[ch.Key] = st
			continue
		}
		ch.Delete = true
		key = append(key[:0], ch.Key...)
		if _, ok := held.Seek(key); ok {
			m.overlay[ch.Key] = st
		} else {
			delete(m.overlay, ch.Key)
		}
	}
	m.rel.Tuples = next
	return nil
}

// postBatch returns the relation's tuples as the batch leaves them: the kept
// ones in order, then copies of the appended ones. It writes nothing within
// the relation's tuples, so a cycle that fails after it leaves them as they
// were.
func (m *Maintainer) postBatch(batch Batch, deleteIdx []int) []relation.Tuple {
	kept := m.rel.Tuples
	if len(deleteIdx) > 0 {
		kept = make([]relation.Tuple, 0, len(kept)-len(deleteIdx)+len(batch.Append))
		from := 0
		for _, i := range deleteIdx {
			kept = append(kept, m.rel.Tuples[from:i]...)
			from = i + 1
		}
		kept = append(kept, m.rel.Tuples[from:]...)
	}
	return append(kept, cloneTuples(batch.Append)...)
}

// cubeOver runs the maintenance job over a tuple batch and lists its cube's
// states; an empty batch has no groups and spins up no engine.
func (m *Maintainer) cubeOver(tuples []relation.Tuple, metrics *mr.JobMetrics) ([]keyed, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	return m.states(m.compute, &relation.Relation{Schema: m.rel.Schema, Tuples: tuples}, metrics)
}

// states runs compute over rel through runJob, with no iceberg threshold,
// and lists the states of the cube it computes in ascending key order, the
// keys aliasing the job's output.
func (m *Maintainer) states(compute cube.ComputeFunc, rel *relation.Relation, metrics *mr.JobMetrics) ([]keyed, error) {
	run, err := m.runJob(compute, rel, 0, metrics, new(Timing))
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

// runJob runs compute over rel on a fresh engine — one job, of the aggregate
// counted, so that every record carries its group's state and tuple count,
// keeping the groups with at least minSup tuples — appending its rounds to
// metrics and its time to t. It indexes the output where the reducers wrote
// it, as one merged segment: a base is read at every key a batch touches for
// as long as it stands, which that makes one search per key instead of one
// per output file, and a batch's cube is too small for the merge to show.
func (m *Maintainer) runJob(compute cube.ComputeFunc, rel *relation.Relation, minSup int, metrics *mr.JobMetrics, t *Timing) (*cube.SortedRun, error) {
	eng := mr.New(mr.Config{
		Workers:          m.cfg.Workers,
		Seed:             uint64(m.cfg.Seed),
		Parallelism:      m.cfg.Parallelism,
		Faults:           m.cfg.Faults,
		SpillBudgetBytes: m.cfg.SpillBudgetBytes,
		SpillDir:         m.cfg.SpillDir,
		SpillCodec:       m.cfg.SpillCodec,
		Tracer:           m.cfg.Tracer,
		Context:          m.cfg.Context,
	}, dfs.New(false))
	start := time.Now()
	spec := cube.Spec{Agg: agg.WithCount(m.cfg.Agg), MinSup: minSup}
	run, err := compute(eng, rel, spec)
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

// recomputeJob is the round that recomputes the groups of keys (encoded
// group keys of d dimensions, ascending and distinct) over the relation it
// runs on. Its map probes their down-closure — every projection of every
// key, a set closed under projection — walking each tuple's lattice from the
// apex and adding dimensions in increasing order, so it reaches every cuboid
// once, through its subsets; a group the closure lacks prunes every
// superset, none of which the closure can hold. A value no key holds in its
// dimension prunes the same way before any key is encoded, so a tuple that
// shares no value with a key costs d bit tests, not 2^d probes. A hit on one
// of the keys folds the tuple's measure into the map task's state of the
// group, and the task ships its states at its end, as the Hive cube's map
// does: one record per group and map task. The reducers merge them under the
// spec's counted aggregate and no iceberg threshold.
func recomputeJob(keys []string, d int) cube.ComputeFunc {
	// closure maps every key of the down-closure to whether it is one of
	// keys; values[j] holds the values of dimension j in keys.
	closure := make(map[string]bool, len(keys)+1)
	for _, key := range keys {
		closure[key] = true
	}
	values := make([]valueFilter, d)
	var packed, dims []relation.Value
	var buf []byte
	// project adds the projections of the group of cuboid mask in dims that
	// drop one dimension, and theirs; a projection the closure holds that
	// is not one of keys has had its own added.
	var project func(mask uint32)
	project = func(mask uint32) {
		for m := mask; m != 0; m &= m - 1 {
			sub := mask &^ (m & -m)
			buf = relation.AppendGroupKey(buf[:0], sub, dims)
			if _, ok := closure[string(buf)]; !ok {
				closure[string(buf)] = false
				project(sub)
			}
		}
	}
	for _, key := range keys {
		var mask uint32
		mask, packed, _, _ = relation.ScanGroupKeyInto(packed, []byte(key)) // a key a job wrote
		dims = relation.GroupVals(dims, mask, packed, d)
		project(mask)
		for m := mask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros32(m)
			values[j].add(dims[j])
		}
	}
	apex := closure[string(relation.AppendGroupKey(nil, 0, nil))]

	return func(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
		f, _ := spec.Effective()
		type scratch struct {
			key, val []byte
			groups   map[string]agg.State
		}
		// walk folds t into its group of cuboid mask, whose key s.key holds,
		// when that is one of keys, and walks on to the supersets.
		var walk func(ctx *mr.MapCtx, s *scratch, t relation.Tuple, mask uint32, from int, emit bool)
		walk = func(ctx *mr.MapCtx, s *scratch, t relation.Tuple, mask uint32, from int, emit bool) {
			if emit {
				st := s.groups[string(s.key)]
				if st == nil {
					st = f.NewState()
					s.groups[string(s.key)] = st
				}
				st.Add(t.Measure)
			}
			for j := from; j < d; j++ {
				if !values[j].has(t.Dims[j]) {
					continue
				}
				ctx.ChargeOps(1)
				s.key = relation.AppendGroupKey(s.key[:0], mask|1<<j, t.Dims)
				if emit, ok := closure[string(s.key)]; ok {
					walk(ctx, s, t, mask|1<<j, j+1, emit)
				}
			}
		}
		job := &mr.Job{
			Name:      "maint-recompute",
			TaskState: func() any { return &scratch{groups: make(map[string]agg.State)} },
			MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
				s := ctx.State().(*scratch)
				ctx.ChargeOps(1)
				s.key = relation.AppendGroupKey(s.key[:0], 0, t.Dims)
				walk(ctx, s, t, 0, 0, apex)
			},
			MapFlush: func(ctx *mr.MapCtx) {
				s := ctx.State().(*scratch)
				s.val = cube.EmitStates(ctx, s.groups, s.val)
			},
			Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
				spec.Emit(ctx, key, cube.MergeStates(ctx, f, vals))
			},
			OutputPrefix: "out/maint-recompute/",
		}
		res, err := eng.RunTuples(job, rel.Tuples)
		run := &cube.Run{Algorithm: job.Name, OutputPrefix: job.OutputPrefix}
		run.Metrics.AddResult(res)
		return run, err
	}
}

// valueFilter is a one-hash Bloom filter of the values of one dimension: a
// value it lacks was never added, one it holds may have been.
type valueFilter [1 << 10]uint64

func (f *valueFilter) bit(v relation.Value) (int, uint64) {
	h := uint32(v) * 0x9e3779b1 >> 16 // Fibonacci hashing onto the filter's 2^16 bits
	return int(h >> 6), 1 << (h & 63)
}

func (f *valueFilter) add(v relation.Value) {
	i, b := f.bit(v)
	f[i] |= b
}

func (f *valueFilter) has(v relation.Value) bool {
	i, b := f.bit(v)
	return f[i]&b != 0
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

// LastBuild returns the stage times of the initial build.
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
