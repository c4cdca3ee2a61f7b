// Package mr is the MapReduce substrate the cube algorithms run on: a
// deterministic in-process engine that executes map/combine/shuffle/reduce
// rounds over k simulated machines with memory m each (the cluster model of
// §2.3 of the paper), accounts every intermediate record and byte exactly,
// simulates skew-induced spill I/O and out-of-memory failures, and converts
// the accounting into simulated wall-clock time through a CostModel.
//
// Tasks within a round are independent — the cluster model's map and reduce
// tasks share nothing until the shuffle barrier — and the engine exploits
// that: Config.Parallelism runs a round's map tasks, and then its reduce
// tasks, on a goroutine worker pool. Every task accumulates its own
// TaskMetrics, shuffle buckets and collected output, and the engine merges
// them in task-index order after each barrier, so runs are bit-for-bit
// identical at any parallelism level (Parallelism 1 degenerates to a plain
// sequential loop). The one obligation this puts on jobs is task isolation:
// map/reduce closures must not mutate shared captured state; per-task
// scratch (reusable buffers, mapper-local aggregation tables) belongs in
// Job.TaskState, which hands each task a private value reachable through
// MapCtx.State/RedCtx.State.
//
// The engine also models MapReduce's core robustness contract: failed tasks
// are transparently re-executed and the job's output is unchanged. Failures
// are injected deterministically through Config.Faults (crash-before-emit,
// crash-mid-emit, slow-task, transient OOM, addressed by round, phase, task
// and attempt); a failed attempt's partial output — buffered map emits,
// reduce-side DFS appends — is discarded, the task re-runs with fresh
// TaskState up to Config.MaxAttempts, and the merged result stays
// bit-for-bit identical to a fault-free run. Attempt counts, retry latency
// and wasted-work bytes are surfaced in TaskMetrics/RoundMetrics. This
// second isolation obligation on jobs is re-entrancy: a task body must
// behave identically when re-run from scratch, so cross-task shared state
// it mutates must be idempotent under replay (monotone set unions, maxima)
// and anything consumed incrementally (RNG streams, cursors) must live in
// TaskState, which is rebuilt per attempt.
//
// Beyond task-level faults, the engine models node-level failure domains:
// every task attempt is deterministically placed on one of Config.Workers
// simulated machines (PlaceNode), and a node-crash fault kills a node at a
// round's shuffle barrier. Completed map output stored on the dead node
// becomes unfetchable — reducers observe fetch failures and the engine
// re-executes the lost map tasks on live nodes (Hadoop's
// re-run-completed-maps-on-node-loss semantics) — and reduce attempts
// placed on the dead node are killed and re-placed. Straggler mitigation
// rides on the same scheduler: Config.SpeculativeSlack launches one
// deterministic backup attempt for a task whose injected stall exceeds the
// slack (the winner is the attempt with the lowest simulated finish time,
// ties keeping the lower attempt index), and Config.TaskTimeout kills and
// retries attempts that stall past it. Because attempts are byte-identical
// (the re-entrancy contract), re-execution, speculation and kills never
// change a single output byte; they only move work and show up in the
// recovery counters.
package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr/blockcodec"
	"github.com/spcube/spcube/internal/relation"
)

// Pair is one intermediate or output key/value record.
type Pair struct {
	Key string
	Val []byte
}

// RecordOverhead is the per-record framing overhead (length prefixes)
// charged in byte accounting, mimicking Hadoop's serialized form.
const RecordOverhead = 8

// MinOOMMemTuples is the absolute floor, in records, of a machine's memory
// used by spill and out-of-memory checks: tiny inputs do not shrink the
// physical machines.
const MinOOMMemTuples = 4000

func pairBytes(key string, val []byte) int64 {
	return int64(len(key) + len(val) + RecordOverhead)
}

// Config describes the simulated cluster.
type Config struct {
	// Workers is k: the number of machines; each round runs Workers map
	// tasks and (by default) Workers reduce tasks. Each machine is also one
	// simulated failure domain that task attempts and their stored map
	// output are placed on. Placement is a deterministic hash of (Seed,
	// round, phase, task, attempt), so node-crash faults lose the same map
	// outputs and kill the same reduce attempts at any Parallelism.
	Workers int
	// MemTuples is m: a machine's memory expressed in input tuples (the
	// paper sets m = n/k). If zero, the engine derives it as n/k at run
	// time from the current input.
	MemTuples int
	// Cost converts accounting into simulated seconds.
	Cost CostModel
	// OOMFactor: a reducer whose (inflation-adjusted) input bytes exceed
	// OOMFactor × machine memory bytes fails when the job sets
	// FailOnReducerOOM. Default 48 (roughly: a reducer can externally
	// sort/merge a few dozen memory-fuls before its task trackers give
	// up, but not an unbounded pile-up).
	OOMFactor float64
	// Seed namespaces hash partitioning so runs are reproducible.
	Seed uint64
	// Parallelism is the number of goroutines executing a round's tasks:
	// 0 defaults to runtime.GOMAXPROCS(0), 1 runs tasks sequentially.
	// Results — output, metrics, simulated time — are bit-for-bit
	// identical at every setting; only real wall-clock changes.
	Parallelism int
	// Faults deterministically injects task failures (see FaultPlan);
	// nil injects nothing. Failed attempts are re-executed with fresh
	// TaskState and their partial output discarded, so a faulted run's
	// output and accounting are bit-for-bit identical to a fault-free
	// run — only the recovery counters (Attempts, RetryWallSeconds,
	// WastedBytes) and real wall-clock differ.
	Faults *FaultPlan
	// MaxAttempts bounds how many times one task is executed before its
	// failure becomes permanent and fails the round (Hadoop's
	// mapreduce.map.maxattempts). 0 defaults to 4. Only injected faults
	// and engine-initiated kills (node loss, task timeout) are retried:
	// deterministic failures — reducer OOM under FailOnReducerOOM,
	// partition range errors — would fail identically again and abort the
	// round on the first attempt.
	MaxAttempts int
	// SpeculativeSlack enables straggler mitigation when positive: a task
	// attempt whose injected stall (the slow fault's delay, in simulated
	// seconds) exceeds the slack gets one deterministic backup attempt at
	// the next attempt index. The winner is the attempt with the lowest
	// simulated finish time (CPU + stall), ties keeping the lower attempt
	// index; the loser's output is discarded into WastedBytes. Output and
	// deterministic metrics are unchanged — only the Speculative* recovery
	// counters record the race.
	SpeculativeSlack float64
	// TaskTimeout, when positive, kills a task attempt whose injected
	// stall exceeds it (in simulated seconds — the analog of Hadoop's
	// progress timeout) and retries it, counting against MaxAttempts.
	// Checked before SpeculativeSlack.
	TaskTimeout float64
	// Tracer receives structured lifecycle events (round start/end, task
	// attempt start/success/failure/retry, shuffle, spill, fault
	// injection). Nil — the default — disables tracing; the engine then
	// performs no trace work and no trace allocations. The delivered
	// stream is deterministic: identical, except for timestamps, at any
	// Parallelism and under any fault plan (see Tracer).
	Tracer Tracer
	// SpillBudgetBytes, when positive, makes the shuffle out-of-core: a
	// map attempt whose buffered emits exceed the budget sorts and flushes
	// them to an on-disk run file (front-coded, see keycodec.go), and
	// reducers stream a k-way merge over the run readers, holding one
	// record per run instead of the whole input. 0 — the default — keeps
	// every intermediate record on the heap. Output is byte-identical at
	// every budget × every Parallelism for jobs without a combiner; with a
	// combiner, at every Parallelism for a fixed budget (spilling combines
	// per flushed chunk, which regroups partial states — final cube values
	// are unchanged because all aggregate states are exact integers, but
	// intermediate record boundaries shift).
	SpillBudgetBytes int64
	// SpillDir is where spill run files live (a private, lazily created
	// subdirectory per run, removed — even on failure — when the run
	// ends). Empty means os.TempDir().
	SpillDir string
	// SpillCodec names the block codec spill runs are written through:
	// "raw" (the default — checksummed frames, no compression) or "lz"
	// (an LZ4-family compressor; sorted front-coded runs typically shrink
	// severalfold, and the cost model charges the compressed size). See
	// internal/mr/blockcodec. Reducer output is byte-identical across
	// codecs; only I/O accounting changes.
	SpillCodec string
	// MergeFanIn caps how many runs a reducer merges in one streaming
	// pass. A reduce task facing more live runs (tiny budgets under heavy
	// spilling produce hundreds) first merges groups of MergeFanIn runs
	// into intermediate on-disk runs — possibly over several passes — and
	// only then streams the final merge, bounding open-run memory and
	// reproducing Hadoop's io.sort.factor semantics. 0 means the default
	// of 64; values below 2 are raised to 2. Reducer input order is
	// byte-identical at any fan-in (contiguous grouping preserves the
	// source-index tiebreak).
	MergeFanIn int
	// SpillWriteWrapper, when set, wraps every spill run file's writer —
	// the fault-injection hook for the disk plane. A wrapper that returns
	// ENOSPC, another write error, or a silent short write makes the
	// owning attempt fail with a clean, retryable task error instead of a
	// panic or a truncated run. Test-only; nil in production.
	SpillWriteWrapper func(w io.Writer) io.Writer
	// Executor selects the execution backend attempts are dispatched
	// through: nil — the default — is the in-process local backend (the
	// goroutine pool above, with node crashes fully simulated); the proc
	// backend (internal/mr/exec) backs each failure domain with a real
	// worker process and realizes node-crash faults by SIGKILLing it.
	// Output is byte-identical across backends: see the Executor interface
	// for the determinism argument.
	Executor Executor
	// Context, when non-nil, cancels the run: it is checked at phase
	// boundaries and between task attempts, so SIGINT-driven cancellation
	// stops a round in bounded time — in-flight rounds included — rather
	// than only between rounds. A canceled run returns the context's
	// error, plainly (not retryable, not a fault).
	Context context.Context
}

// Job describes one MapReduce round. Exactly one of MapTuple and MapPair
// must be set, matching the input fed to Run.
type Job struct {
	Name string
	// Reducers overrides the number of reduce tasks (default
	// Config.Workers). SP-Cube uses Workers+1: the extra reducer 0
	// aggregates skewed c-groups (§5).
	Reducers int

	MapTuple func(ctx *MapCtx, t relation.Tuple)
	MapPair  func(ctx *MapCtx, key string, val []byte)
	// MapFlush runs at the end of each map task; mappers that hold local
	// state (partial aggregates of skewed groups, map-side hashes) emit
	// it here.
	MapFlush func(ctx *MapCtx)

	// Combine, when set, merges each map task's output values per key
	// before the shuffle (Hadoop combiner semantics).
	Combine func(key string, vals [][]byte) [][]byte

	// Partition routes a key to a reducer in [0, reducers). Default:
	// hash partitioning.
	Partition func(key string, reducers int) int

	Reduce func(ctx *RedCtx, key string, vals [][]byte)

	// TaskState, when set, is called once per map task and once per reduce
	// task to create that task's private scratch state, reachable through
	// MapCtx.State/RedCtx.State. Tasks of a round may run concurrently
	// (Config.Parallelism), so reusable buffers and task-local aggregation
	// tables must live here rather than in variables captured by the
	// map/reduce closures.
	TaskState func() any

	// MapCPUFactor and ReduceCPUFactor scale the tasks' CPU charges,
	// modelling per-framework operator efficiency (e.g. Pig's reduce-side
	// algebraic bag processing is heavier than Hive's streaming merge of
	// serialized counters). Calibrated once against the orderings of the
	// paper's Figure 4 and held fixed everywhere; default 1.
	MapCPUFactor    float64
	ReduceCPUFactor float64

	// FailOnReducerOOM makes reducer memory overflow fatal (Hive model)
	// rather than absorbed as spill I/O time.
	FailOnReducerOOM bool
	// MemInflation scales reducer input bytes when checking memory
	// pressure (deserialized-object overhead). Default 1.
	MemInflation float64
	// CollectOutput retains reducer EmitSide pairs in the RoundResult for
	// use as the next round's input.
	CollectOutput bool
	// OutputPrefix overrides the DFS prefix reducer output is written
	// under (default "out/<job name>/").
	OutputPrefix string
}

// RoundResult is the outcome of one engine round.
type RoundResult struct {
	Metrics RoundMetrics
	// Output holds the reducers' EmitKV pairs when CollectOutput is set.
	Output []Pair
}

// Engine executes rounds against a shared simulated DFS.
type Engine struct {
	Cfg Config
	FS  *dfs.FS
	// rounds counts executed jobs; Fault.Round selects against it.
	rounds int
	// traceSeq numbers delivered trace events; only touched from the run
	// goroutine (events are flushed at phase barriers).
	traceSeq int64
	// inBytesPtr/N/Val memoize tupleInputBytes for the last input slice:
	// multi-round algorithms call RunTuples repeatedly on the same
	// relation, and the full encoding pass is worth running only once.
	inBytesPtr *relation.Tuple
	inBytesN   int
	inBytesVal int64
}

// New creates an engine. When fs is nil a discard-mode DFS is created.
func New(cfg Config, fs *dfs.FS) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.OOMFactor <= 0 {
		cfg.OOMFactor = 48
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.MergeFanIn == 0 {
		cfg.MergeFanIn = defaultMergeFanIn
	} else if cfg.MergeFanIn < 2 {
		cfg.MergeFanIn = 2 // a two-way merge is the smallest that makes progress
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCost()
	}
	if cfg.Executor == nil {
		cfg.Executor = localExecutor{}
	}
	if fs == nil {
		fs = dfs.New(true)
	}
	return &Engine{Cfg: cfg, FS: fs}
}

// MemTuples returns the machine memory in tuples for an input of n tuples.
func (e *Engine) MemTuples(n int) int {
	if e.Cfg.MemTuples > 0 {
		return e.Cfg.MemTuples
	}
	m := n / e.Cfg.Workers
	if m < 1 {
		m = 1
	}
	return m
}

// MapCtx is the context passed to map functions.
type MapCtx struct {
	Task    int
	job     *Job
	eng     *Engine
	out     []Pair
	state   any
	metrics TaskMetrics
	inject  *injector
	// arena batches EmitCopied/EmitBytes copies for the attempt: records
	// are appended to one growing buffer instead of one allocation each.
	// Arena bytes are written once and never modified, so emitted slices
	// (and the key strings EmitBytes builds over them) stay valid as the
	// arena grows, and die with the attempt on a fault. After a spill
	// flushes the buffered records to disk the arena is reused from the
	// start — nothing references the flushed bytes anymore.
	arena []byte

	// Out-of-core spill state (Config.SpillBudgetBytes > 0): pending
	// counts raw emitted bytes since the last flush; once it crosses
	// budget, spillNow combines, partitions, sorts and appends the
	// buffered records to the attempt's run file.
	reducers    int
	partition   func(string, int) int
	budget      int64
	pending     int64
	sd          *spillDir
	spill       *spillFile
	sortScratch []Pair
	bucketRaw   []int64 // Σ pairBytes per bucket of the last partitionSort
	encBuf      []byte
	// tr (nil when tracing is off; its methods are nil-safe) and attempt
	// address the attempt's spill trace events.
	tr      *roundTracer
	attempt int

	// Spill pipeline state: flushes are encoded through codec into one of
	// writer's double buffers and written by its background goroutine.
	// blockBuf is codec scratch; flushes records each flush's compressed
	// size so the attempt can emit spill-flush trace events once its writer
	// has joined.
	codec    blockcodec.Codec
	writer   *spillWriter
	blockBuf []byte
	flushes  []flushRec
}

// flushRec is one spill flush's post-write accounting: the framed,
// compressed bytes the background writer put on disk and the records they
// hold.
type flushRec struct {
	bytes   int64
	records int64
}

// mapOutput is one completed map task's shuffle contribution: the sorted
// in-memory per-reducer buckets, each bucket's raw byte size (the metadata
// a spill segment carries, so sizing a reducer's input reads no record),
// plus, when the attempt spilled, its run file of earlier sorted flushes.
type mapOutput struct {
	buckets [][]Pair
	raw     []int64
	spill   *spillFile
}

// State returns the task-private state created by Job.TaskState, or nil
// when the job has no TaskState hook.
func (c *MapCtx) State() any { return c.state }

// Emit sends a key/value record to the shuffle.
//
// This is the zero-copy fast path: the engine retains val as passed — it
// is NOT copied — and the record may be read as late as the reduce phase.
// The caller must therefore not modify val's backing array after the
// call. Mappers that build values in a reusable scratch buffer must emit
// through EmitCopied (or EmitBytes) instead; passing one immutable buffer
// to several Emit calls (aliased values) is fine.
func (c *MapCtx) Emit(key string, val []byte) {
	c.out = append(c.out, Pair{Key: key, Val: val})
	pb := pairBytes(key, val)
	c.metrics.PreCombineRecords++
	c.metrics.PreCombineBytes += pb
	c.metrics.CPUSeconds += c.eng.Cfg.Cost.MapCPUPerEmit
	c.inject.onEmit()
	if c.budget > 0 {
		c.pending += pb
		if c.pending >= c.budget {
			c.spillNow()
		}
	}
}

// taskAbort carries a non-fault, non-retryable error (spill I/O failures
// inside Emit) out of a map function's call stack; the attempt wrapper
// recovers it into a plain error.
type taskAbort struct{ err error }

// spillNow flushes the attempt's buffered output toward its on-disk run
// file: combine (jobs with a combiner pre-aggregate each flushed chunk,
// Hadoop's per-spill combining), partition, sort, encode the flush into a
// double buffer and hand it to the background writer, then reset the emit
// buffer and arena for the next chunk. The foreground only blocks when
// both buffers are in flight — that wait is the spillWriteStallNs metric.
// Write errors surface at the attempt's writer join, not here.
func (c *MapCtx) spillNow() {
	out := c.out
	if c.job.Combine != nil {
		out = c.eng.combine(c.job, c, out)
	}
	buckets, err := c.eng.partitionSort(c.job, c, out)
	if err != nil {
		panic(taskAbort{err})
	}
	if c.spill == nil {
		sf, err := c.sd.create("run-m-*")
		if err != nil {
			panic(taskAbort{err})
		}
		c.spill = sf
		c.writer = newSpillWriter(sf)
	}
	buf, stall := c.writer.acquire()
	c.metrics.SpillWriteStallNs += stall.Nanoseconds()
	var encBytes int64
	buf.framed, buf.segs, encBytes = encodeSpill(buckets, c.codec, buf.framed, &c.encBuf, &c.blockBuf)
	written := int64(len(buf.framed))
	var records int64
	for i := range buf.segs {
		records += buf.segs[i].records
	}
	c.writer.submit(buf)
	c.metrics.Spills++
	c.metrics.SpillBytes += encBytes
	c.metrics.CompressedSpillBytes += written
	c.metrics.CPUSeconds += float64(written) / c.eng.Cfg.Cost.DiskBytesPerSec
	c.tr.add(PhaseMap, c.Task, TraceEvent{Type: EvSpill, Attempt: c.attempt, Bytes: encBytes})
	c.flushes = append(c.flushes, flushRec{bytes: written, records: records})
	c.out = c.out[:0]
	c.arena = c.arena[:0]
	c.pending = 0
}

// EmitCopied sends a key/value record to the shuffle, copying val into the
// attempt's arena first: the caller may immediately reuse val's backing
// buffer. The copy costs amortized zero allocations.
func (c *MapCtx) EmitCopied(key string, val []byte) {
	c.Emit(key, c.arenaAppend(val))
}

// EmitBytes sends a key/value record to the shuffle with both key and
// value built in reusable scratch buffers: both are copied into the
// attempt's arena, and the key string is built over its arena bytes
// without a separate allocation. This is the allocation-free emit path
// for mappers that encode keys per record.
func (c *MapCtx) EmitBytes(key, val []byte) {
	k := c.arenaAppend(key)
	v := c.arenaAppend(val)
	var ks string
	if len(k) > 0 {
		// Safe: arena bytes are append-only, so the string over them is
		// as immutable as any other string.
		ks = unsafe.String(&k[0], len(k))
	}
	c.Emit(ks, v)
}

// arenaAppend copies b into the attempt arena and returns the copy,
// capped so appends through the returned slice cannot touch later arena
// content.
func (c *MapCtx) arenaAppend(b []byte) []byte {
	n := len(c.arena)
	c.arena = append(c.arena, b...)
	return c.arena[n:len(c.arena):len(c.arena)]
}

// ChargeOps reports n elementary algorithm operations (hash probes, lattice
// node visits) for CPU cost accounting.
func (c *MapCtx) ChargeOps(n int64) {
	c.metrics.Ops += n
	c.metrics.CPUSeconds += float64(n) * c.eng.Cfg.Cost.CPUPerOp
}

// Workers returns the cluster size k.
func (c *MapCtx) Workers() int { return c.eng.Cfg.Workers }

// RedCtx is the context passed to reduce functions.
type RedCtx struct {
	Task     int
	job      *Job
	eng      *Engine
	file     string
	sideFile string
	collect  []Pair
	state    any
	metrics  *TaskMetrics
	scratch  []byte
	inject   *injector
	// External-aggregation spill state: oversized groups are encoded
	// through the spill codec (SpillBytes is the exact encoded size) and,
	// when out-of-core mode is on, block-framed through codec and written
	// to a per-attempt run file (frameBuf/blockBuf are framing scratch).
	sd       *spillDir
	budget   int64
	extSpill *spillFile
	encBuf   []byte
	codec    blockcodec.Codec
	frameBuf []byte
	blockBuf []byte
	tr       *roundTracer // see MapCtx.tr
	attempt  int
}

// discardExtSpill deletes the attempt's external-aggregation run file (it
// is written for its I/O, never merged back); called when the attempt ends,
// on every path.
func (c *RedCtx) discardExtSpill() {
	c.extSpill.discard()
	c.extSpill = nil
}

// State returns the task-private state created by Job.TaskState, or nil
// when the job has no TaskState hook.
func (c *RedCtx) State() any { return c.state }

// EmitKV writes one output record (an encoded key/value) to the reducer's
// DFS output file.
func (c *RedCtx) EmitKV(key string, val []byte) {
	c.metrics.OutRecords++
	c.metrics.OutBytes += pairBytes(key, val)
	c.metrics.CPUSeconds += c.eng.Cfg.Cost.ReduceCPUPerEmit
	c.scratch = c.scratch[:0]
	c.scratch = append(c.scratch, key...)
	c.scratch = append(c.scratch, '\t')
	c.scratch = append(c.scratch, val...)
	c.eng.FS.Append(c.file, c.scratch)
	c.inject.onEmit()
}

// EmitSide writes one record to the reducer's side-output file (kept apart
// from the job's primary output) and, when the job collects output, retains
// it for the next round — how multi-round algorithms pass intermediate
// results forward.
func (c *RedCtx) EmitSide(key string, val []byte) {
	c.metrics.SideRecords++
	c.metrics.SideBytes += pairBytes(key, val)
	c.metrics.CPUSeconds += c.eng.Cfg.Cost.ReduceCPUPerEmit
	c.scratch = c.scratch[:0]
	c.scratch = append(c.scratch, key...)
	c.scratch = append(c.scratch, '\t')
	c.scratch = append(c.scratch, val...)
	c.eng.FS.Append(c.sideFile, c.scratch)
	if c.job.CollectOutput {
		c.collect = append(c.collect, Pair{Key: key, Val: append([]byte(nil), val...)})
	}
	c.inject.onEmit()
}

// ChargeOps reports n elementary algorithm operations.
func (c *RedCtx) ChargeOps(n int64) {
	c.metrics.Ops += n
	c.metrics.CPUSeconds += float64(n) * c.eng.Cfg.Cost.CPUPerOp
}

// Workers returns the cluster size k.
func (c *RedCtx) Workers() int { return c.eng.Cfg.Workers }

// RunTuples executes job with the relation's tuples as input, split equally
// among the Workers map tasks (the paper's load assumption, §2.3).
func (e *Engine) RunTuples(job *Job, tuples []relation.Tuple) (*RoundResult, error) {
	if job.MapTuple == nil {
		return nil, fmt.Errorf("mr: job %s: RunTuples requires MapTuple", job.Name)
	}
	n := len(tuples)
	inBytes := e.tupleInputBytes(tuples)
	return e.run(job, n, func(task int, ctx *MapCtx) {
		lo, hi := split(n, e.Cfg.Workers, task)
		for i := lo; i < hi; i++ {
			ctx.metrics.InRecords++
			ctx.metrics.CPUSeconds += e.Cfg.Cost.MapCPUPerRecord
			job.MapTuple(ctx, tuples[i])
		}
		ctx.metrics.InBytes = inBytes * int64(hi-lo) / int64(max(n, 1))
	})
}

// RunPairs executes job with key/value pairs as input (chained rounds).
func (e *Engine) RunPairs(job *Job, pairs []Pair) (*RoundResult, error) {
	if job.MapPair == nil {
		return nil, fmt.Errorf("mr: job %s: RunPairs requires MapPair", job.Name)
	}
	n := len(pairs)
	return e.run(job, n, func(task int, ctx *MapCtx) {
		lo, hi := split(n, e.Cfg.Workers, task)
		for i := lo; i < hi; i++ {
			ctx.metrics.InRecords++
			ctx.metrics.InBytes += pairBytes(pairs[i].Key, pairs[i].Val)
			ctx.metrics.CPUSeconds += e.Cfg.Cost.MapCPUPerRecord
			job.MapPair(ctx, pairs[i].Key, pairs[i].Val)
		}
	})
}

// round is one executing MapReduce round: the plan every stage reads, the
// backend and tracer handles, and the state the stages hand each other.
// Engine.run drives it through plan → open → map stage → crash barrier
// (crash, fetch probe, re-execution) → shuffle hand-off → reduce stage →
// finish.
type round struct {
	eng *Engine
	job *Job
	// index is the engine's round counter: fault plans and attempt
	// placement select against it.
	index     int
	reducers  int
	partition func(key string, reducers int) int
	outPrefix string
	codec     blockcodec.Codec
	feed      func(task int, ctx *MapCtx)

	// Memory model. Machines have an absolute memory floor regardless of
	// how small the input is (m = n/k is the paper's asymptotic assumption;
	// a physical machine does not shrink with n), so oomMem is memTuples
	// raised to MinOOMMemTuples; it only affects memory-pressure checks,
	// not the skew threshold. inflation is Job.MemInflation, defaulted.
	memTuples int
	oomMem    float64
	inflation float64

	// sd holds all of the round's run files in one lazily created
	// directory, removed wholesale when the round ends. Files of failed,
	// killed, raced or node-crash-lost attempts are deleted eagerly; the
	// deferred cleanup is the backstop that makes leaks impossible on any
	// exit path, error returns included.
	sd *spillDir
	// tr is nil when Config.Tracer is unset, and every method on a nil
	// roundTracer is a no-op, so the untraced path does no trace work.
	// Task-level events are buffered per task and flushed in task-index
	// order at each phase barrier, which keeps the delivered stream
	// identical at any parallelism.
	tr *roundTracer

	// Failure domains. The engine makes every scheduling decision and the
	// backend (rex) realizes it. dead is the round's planned node crashes,
	// delivered at the crash barrier; down is the backend's own permanently
	// unusable workers (nil under the local backend); barrierDown is their
	// union, which everything placed after the barrier drains around.
	rex         RoundExecutor
	dead        []bool
	down        []bool
	barrierDown []bool

	start time.Time
	res   *RoundResult
	rm    *RoundMetrics

	maps []mapTask
	// outOfCore records that some map output reached the shuffle with a run
	// file. Only then may a reducer consolidate runs beyond MergeFanIn onto
	// disk: a round that fit in memory never creates a file, whatever the
	// fan-in cap says.
	outOfCore bool
}

// mapTask is one map task's standing at the barrier: the winning attempt —
// its output, plus the attempt index and storage node the fetch probe
// addresses — or the error that failed the task.
type mapTask struct {
	win *taskAttempt
	err error
}

// run executes one round over n input records: the stage list of the round
// type's comment, in order, stopping at the first stage that fails. feed
// drives one map task's share of the input through the job's map function.
func (e *Engine) run(job *Job, n int, feed func(task int, ctx *MapCtx)) (*RoundResult, error) {
	r, err := e.planRound(job, n, feed)
	if err != nil {
		return nil, err
	}
	if cerr := e.cancelErr(); cerr != nil {
		return nil, cerr
	}
	if err := r.open(); err != nil {
		return r.res, err
	}
	defer r.sd.cleanup()
	err = r.mapStage()
	if err == nil {
		err = r.crashBarrier()
	}
	if err == nil {
		err = r.reduceStage(r.shuffle())
	}
	r.finish()
	return r.res, err
}

// planRound resolves everything about the round that is fixed before a
// task runs, takes the round index, and emits the round-start event.
func (e *Engine) planRound(job *Job, n int, feed func(task int, ctx *MapCtx)) (*round, error) {
	r := &round{eng: e, job: job, feed: feed}
	r.memTuples = e.MemTuples(n)
	r.oomMem = math.Max(float64(r.memTuples), MinOOMMemTuples)
	r.inflation = job.MemInflation
	if r.inflation <= 0 {
		r.inflation = 1
	}
	r.reducers = job.Reducers
	if r.reducers <= 0 {
		r.reducers = e.Cfg.Workers
	}
	r.partition = job.Partition
	if r.partition == nil {
		seed := e.Cfg.Seed
		r.partition = func(key string, reducers int) int { return HashPartition(seed, key, reducers) }
	}
	r.outPrefix = job.OutputPrefix
	if r.outPrefix == "" {
		r.outPrefix = "out/" + job.Name + "/"
	}
	var err error
	if r.codec, err = blockcodec.ByName(e.Cfg.SpillCodec); err != nil {
		return nil, fmt.Errorf("mr: job %s: %w", job.Name, err)
	}
	r.res = &RoundResult{Metrics: RoundMetrics{Job: job.Name}}
	r.rm = &r.res.Metrics
	r.rm.Mappers = make([]TaskMetrics, e.Cfg.Workers)
	r.rm.Reducers = make([]TaskMetrics, r.reducers)
	r.maps = make([]mapTask, e.Cfg.Workers)
	r.index = e.rounds
	e.rounds++
	r.start = time.Now()
	r.tr = e.tracerFor(r.index, job.Name)
	r.tr.roundStart(e.Cfg.Workers, r.reducers)
	// Attempt placement and the crash plan are fixed up front, so both are
	// identical at any parallelism.
	r.dead = e.deadNodes(r.index, e.Cfg.Workers)
	return r, nil
}

// open starts the round on the execution backend. A backend with no usable
// node at all fails the round plainly instead of hanging.
func (r *round) open() error {
	e := r.eng
	var err error
	r.rex, r.down, err = e.Cfg.Executor.RoundStart(r.index, e.Cfg.Workers, r.dead, RoundHooks{Trace: r.tr.event})
	if err != nil {
		r.rm.Failed = true
		r.rm.FailReason = fmt.Sprintf("execution backend: %v", err)
		r.rm.finalize(e.Cfg.Cost)
		r.rm.WallSeconds = time.Since(r.start).Seconds()
		r.tr.roundEnd(r.rm)
		return fmt.Errorf("mr: job %s: execution backend: %w", r.job.Name, err)
	}
	r.sd = newSpillDir(e.Cfg.SpillDir, e.Cfg.SpillWriteWrapper)
	return nil
}

// finish closes an opened round on every exit path: collect the backend's
// health counters (volatile; zero under the local backend), finalize the
// metrics, and emit the round-end event.
func (r *round) finish() {
	st := r.rex.RoundEnd()
	r.rm.finalize(r.eng.Cfg.Cost)
	r.rm.HeartbeatMisses = st.HeartbeatMisses
	r.rm.WorkerRestarts = st.WorkerRestarts
	r.rm.RPCRetries = st.RPCRetries
	r.rm.WallSeconds = time.Since(r.start).Seconds()
	if st.RPCRetries > 0 {
		// Volatile by nature (real transport flakiness does not replay);
		// emitted from the run goroutine so the sequence stays ordered.
		r.tr.event(TraceEvent{Type: EvRPCRetry, Records: st.RPCRetries})
	}
	r.tr.roundEnd(r.rm)
}

// mapStage runs every map task on the worker pool. Each task partitions and
// sorts its own output into private per-reducer buckets, so bucket contents
// are independent of task scheduling; a failed attempt's buffered output
// dies with its context, so nothing of it reaches the shuffle.
func (r *round) mapStage() error {
	workers := r.eng.Cfg.Workers
	r.tr.startPhase(workers)
	r.eng.forEachTask(workers, func(task int) { r.runMapTask(task, false, r.down) })
	r.tr.flushPhase()
	return r.mapFailure()
}

// runMapTask runs one map task through the attempt runner — its first run,
// or the re-execution of a completed task whose stored output was lost —
// and records the winning attempt.
func (r *round) runMapTask(task int, reexec bool, down []bool) {
	win, err := r.runTask(&taskSpec{
		phase: PhaseMap, task: task, tm: &r.rm.Mappers[task], reexec: reexec, down: down,
		body: func(a *taskAttempt) {
			ctx := r.newMapCtx(task, a)
			a.mout, a.err = r.mapAttempt(ctx)
			a.metrics, a.wasted = ctx.metrics, ctx.metrics.PreCombineBytes
		},
		undo: func(a *taskAttempt) { a.mout.spill.discard() },
	})
	r.maps[task] = mapTask{win, err}
}

// mapFailure returns the first failed map task's error, in task order. A
// task that exhausted its attempts fails the round with the attempt count;
// deterministic errors (partition range violations) and cancellation are
// returned as they are.
func (r *round) mapFailure() error {
	for task := range r.maps {
		err := r.maps[task].err
		if err == nil {
			continue
		}
		if retryableErr(err) {
			r.rm.Failed = true
			r.rm.FailReason = fmt.Sprintf("map task %d failed after %d attempts: %v",
				task, r.rm.Mappers[task].Attempts, err)
			err = fmt.Errorf("mr: job %s: map task %d failed after %d attempts: %w",
				r.job.Name, task, r.rm.Mappers[task].Attempts, err)
		}
		return err
	}
	return nil
}

// crashBarrier delivers the round's node crashes once every map task has
// completed. Each dead node takes the completed map output stored on it
// with it: every reducer observes a fetch failure per lost map task, and
// the lost tasks are re-executed on live nodes before the shuffle hand-off.
// Re-executed output is byte-identical (the re-entrancy contract), so only
// the recovery counters change.
//
// The backend realizes the planned deaths first — the proc backend SIGKILLs
// the doomed worker processes and waits for them to die — and then every
// winning map output is probed through it, so under the proc backend "lost"
// means the fetch RPC genuinely failed against a dead process. The local
// backend's probe checks the stored-on-a-dead-node condition directly, and
// CrashNodes kills exactly the dead set, so the lost sets are equal by
// construction.
func (r *round) crashBarrier() error {
	for n := range r.dead {
		if r.dead[n] {
			r.tr.nodeCrash(n)
		}
	}
	r.rex.CrashNodes()
	r.barrierDown = unionDead(r.dead, r.down)
	var lost []int
	for task, mt := range r.maps {
		if r.rex.FetchMapOutput(task, mt.win.index, mt.win.node) != nil {
			lost = append(lost, task)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	for _, task := range lost {
		win := r.maps[task].win
		r.tr.fetchFail(task, win.node, r.reducers)
		// The dead node takes the stored run file with it, exactly like the
		// in-memory buckets; re-execution rebuilds both.
		win.mout.spill.discard()
		win.mout = mapOutput{}
	}
	for red := range r.rm.Reducers {
		r.rm.Reducers[red].FetchFailures = int64(len(lost))
	}
	r.tr.startPhase(len(r.maps))
	r.eng.forEachTask(len(lost), func(i int) { r.runMapTask(lost[i], true, r.barrierDown) })
	r.tr.flushPhase()
	return r.mapFailure()
}

// shuffle is the hand-off from map to reduce: reducer r receives, per map
// task in task order, the task's spill segments in flush order and then its
// final in-memory bucket. Every source arrives already sorted (map-side
// sort in partitionSort), so the hand-off is pure headers: no record is
// copied, flattened or re-sorted. Within one task the chunks were flushed
// in emission order and the merge breaks key ties by source index, so the
// merged order equals the order one big stable per-task sort would have
// produced — reducer input, and with it output, is byte-identical whether
// or not anything spilled.
//
// Shuffle accounting runs after any re-execution: the re-run output is
// byte-identical, so the totals equal a fault-free run's — the lost bytes
// appear only in WastedBytes.
func (r *round) shuffle() [][]streamSource {
	for task := range r.maps {
		r.rm.ShuffleRecords += r.rm.Mappers[task].OutRecords
		r.rm.ShuffleBytes += r.rm.Mappers[task].OutBytes
		r.outOfCore = r.outOfCore || r.maps[task].win.mout.spill != nil
	}
	r.tr.shuffle(r.rm)
	srcs := make([][]streamSource, r.reducers)
	for red := range srcs {
		runs := make([]streamSource, 0, len(r.maps)) // exact when nothing spilled
		for task := range r.maps {
			mo := &r.maps[task].win.mout
			if mo.spill != nil {
				for _, flush := range mo.spill.spills {
					if seg := &flush[red]; seg.records > 0 {
						runs = append(runs, streamSource{seg: seg})
					}
				}
			}
			if len(mo.buckets[red]) > 0 {
				runs = append(runs, streamSource{pairs: mo.buckets[red], raw: mo.raw[red]})
			}
		}
		srcs[red] = runs
	}
	return srcs
}

// reduceStage sizes every reducer's input, checks memory pressure, runs the
// reduce tasks on the worker pool and commits their output in task order.
func (r *round) reduceStage(srcs [][]streamSource) error {
	r.tr.startPhase(r.reducers)
	runTasks, failErr := r.sizeReducers(srcs)
	// Tasks before the first failure (all of them on the usual error-free
	// path) run on the pool, each collecting side output privately; the
	// commit below restores task order.
	wins := make([]*taskAttempt, runTasks)
	errs := make([]error, runTasks)
	r.eng.forEachTask(runTasks, func(task int) {
		wins[task], errs[task] = r.runReduceTask(task, srcs[task])
	})
	r.tr.flushPhase()
	for task := 0; task < runTasks && failErr == nil; task++ {
		err := errs[task]
		if err == nil {
			continue
		}
		if cerr := r.eng.cancelErr(); cerr != nil && err == cerr {
			// Cancellation is a plain abort, not a task failure: return
			// the context error unwrapped, without failing the round.
			failErr = err
			break
		}
		r.rm.Failed = true
		r.rm.FailReason = fmt.Sprintf("reduce task %d failed after %d attempts: %v",
			task, r.rm.Reducers[task].Attempts, err)
		failErr = fmt.Errorf("mr: job %s: reduce task %d failed after %d attempts: %w",
			r.job.Name, task, r.rm.Reducers[task].Attempts, err)
	}
	for task := 0; task < runTasks; task++ {
		if errs[task] != nil {
			continue
		}
		r.rm.OutputRecords += r.rm.Reducers[task].OutRecords
		r.rm.OutputBytes += r.rm.Reducers[task].OutBytes
		r.res.Output = append(r.res.Output, wins[task].collect...)
	}
	return failErr
}

// sizeReducers accounts every reducer's input from its sources' metadata —
// no record and no run file is read — and applies the hard memory check. It
// runs up front, in task order, which gives first-failure semantics
// independent of scheduling: reducers past the first out-of-memory one
// never run and keep zero metrics. It returns how many reducers to run and
// the failure that stopped the rest, if any.
//
// Memory pressure is checked in records (one record ≈ one tuple or partial
// state), making the model independent of encoding sizes. A reducer whose
// inflation-adjusted input exceeds OOMFactor memory-fuls dies when the job
// opts into hard failure (the Hive model); others absorb oversized *groups*
// as external aggregation I/O in reduceAttempt.
func (r *round) sizeReducers(srcs [][]streamSource) (int, error) {
	cfg := &r.eng.Cfg
	for task, runs := range srcs {
		tm := &r.rm.Reducers[task]
		for _, src := range runs {
			records, raw := src.size()
			tm.InRecords += records
			tm.InBytes += raw
			if src.seg != nil {
				// The encoded length is charged as one streaming read pass.
				tm.CPUSeconds += float64(src.seg.length) / cfg.Cost.DiskBytesPerSec
			}
		}
		tm.CPUSeconds += float64(tm.InRecords) * cfg.Cost.ReduceCPUPerRecord
		if r.job.FailOnReducerOOM && float64(tm.InRecords)*r.inflation > cfg.OOMFactor*r.oomMem {
			r.rm.Failed = true
			r.rm.FailReason = fmt.Sprintf("reducer %d out of memory: %d input records (×%.0f inflation) exceed %.0f×m (m=%d tuples)",
				task, tm.InRecords, r.inflation, cfg.OOMFactor, r.memTuples)
			err := fmt.Errorf("mr: job %s: %s", r.job.Name, r.rm.FailReason)
			r.tr.attemptFailure(PhaseReduce, task, 0, err)
			return task, err
		}
	}
	return len(srcs), nil
}

// runReduceTask runs one reduce task through the attempt runner and returns
// the winning attempt, which carries the task's collected side output. The
// k-way merge over the task's sorted runs is read-only (spill segments are
// re-read via ReadAt), so one merger serves every attempt; each attempt
// rewinds it. A failed attempt's DFS appends are rolled back to the
// pre-attempt marks, so the output files hold exactly one successful
// attempt's records.
func (r *round) runReduceTask(task int, runs []streamSource) (*taskAttempt, error) {
	tm := &r.rm.Reducers[task] // holds the pre-scan's input accounting
	if r.outOfCore && len(runs) > r.eng.Cfg.MergeFanIn {
		// More live runs than MergeFanIn are first consolidated through
		// intermediate on-disk merges. That happens once, before any
		// attempt, so its failure fails the task without a retry.
		var err error
		if runs, err = r.fanInMerge(runs, task, tm); err != nil {
			tm.Attempts = 1
			r.tr.attemptFailure(PhaseReduce, task, 0, err)
			return nil, err
		}
	}
	m := newStreamMerger(runs, defaultPrefetchBudget)
	defer func() {
		// The merger (and its read-ahead goroutines) dies with the task,
		// before the round's spill cleanup can close the files under it.
		// Prefetch totals accumulate across the task's attempts and are
		// volatile, like the wall times.
		m.close()
		tm.PrefetchHits += m.hits
		tm.PrefetchMisses += m.misses
	}()
	fs := r.eng.FS
	file := fmt.Sprintf("%spart-r-%05d", r.outPrefix, task)
	sideFile := fmt.Sprintf("side/%s/part-r-%05d", r.job.Name, task)
	return r.runTask(&taskSpec{
		phase: PhaseReduce, task: task, tm: tm, down: r.barrierDown,
		body: func(a *taskAttempt) {
			a.marks = [2]dfs.FileMark{fs.Mark(file), fs.Mark(sideFile)}
			ctx := r.newRedCtx(task, a, file, sideFile)
			a.err = r.reduceAttempt(ctx, m)
			ctx.discardExtSpill()
			a.collect, a.wasted = ctx.collect, a.metrics.OutBytes+a.metrics.SideBytes
		},
		undo: func(a *taskAttempt) {
			fs.Rollback(file, a.marks[0])
			fs.Rollback(sideFile, a.marks[1])
		},
	})
}

// newMapCtx builds one map attempt's context, wiring in the spill
// machinery (budget, partitioner, run-file directory, codec).
func (r *round) newMapCtx(task int, a *taskAttempt) *MapCtx {
	return &MapCtx{
		Task: task, job: r.job, eng: r.eng, inject: a.inj,
		reducers: r.reducers, partition: r.partition,
		budget: r.eng.Cfg.SpillBudgetBytes, sd: r.sd, codec: r.codec,
		tr: r.tr, attempt: a.index,
	}
}

// newRedCtx builds one reduce attempt's context, accounting into the
// attempt's metrics.
func (r *round) newRedCtx(task int, a *taskAttempt, file, sideFile string) *RedCtx {
	return &RedCtx{
		Task: task, job: r.job, eng: r.eng, file: file, sideFile: sideFile,
		metrics: &a.metrics, inject: a.inj, sd: r.sd, budget: r.eng.Cfg.SpillBudgetBytes,
		codec: r.codec, tr: r.tr, attempt: a.index,
	}
}

// mapAttempt executes one attempt of one map task: fresh TaskState, the
// input feed, MapFlush, the combiner, partitioning into per-reducer
// buckets, and the map-side sort of each bucket. An injected crash
// surfaces as a *FaultError; the partial results accumulated in ctx —
// spilled run files included — die with it. Partition range violations
// are returned as plain (non-retryable) errors; spill I/O failures carry
// a spillIOError and are retryable — a fresh attempt re-places onto
// another node whose disk may be healthy.
func (r *round) mapAttempt(ctx *MapCtx) (mout mapOutput, err error) {
	job := r.job
	defer func() {
		if rec := recover(); rec != nil {
			switch sig := rec.(type) {
			case faultSignal:
				err = ctx.inject.err(sig.fault)
			case taskAbort:
				err = sig.err
			default:
				panic(rec)
			}
		}
		// Join the attempt's background spill writer on every exit path —
		// success, fault, abort — before anything reads or discards the run
		// file: the writer goroutine must never outlive its attempt, and a
		// surviving write error fails the attempt.
		if ctx.writer != nil {
			jerr, jstall := ctx.writer.join()
			ctx.metrics.SpillWriteStallNs += jstall.Nanoseconds()
			if err == nil {
				err = jerr
			}
		}
		if err != nil {
			ctx.spill.discard()
			ctx.spill = nil
			mout = mapOutput{}
		} else if ctx.tr != nil {
			// All writes are on disk now; report each flush's compressed
			// size. Emitted only for surviving attempts, at a deterministic
			// point (before the attempt returns), so the trace stream stays
			// bit-identical at any parallelism.
			for _, f := range ctx.flushes {
				ctx.tr.add(PhaseMap, ctx.Task, TraceEvent{Type: EvSpillFlush, Attempt: ctx.attempt, Bytes: f.bytes, Records: f.records})
			}
		}
	}()
	ctx.inject.start()
	if job.TaskState != nil {
		ctx.state = job.TaskState()
	}
	r.feed(ctx.Task, ctx)
	if job.MapFlush != nil {
		job.MapFlush(ctx)
	}
	out := ctx.out
	if job.Combine != nil {
		out = r.eng.combine(job, ctx, out)
	}
	buckets, err := r.eng.partitionSort(job, ctx, out)
	if err != nil {
		return mapOutput{}, err
	}
	if job.MapCPUFactor > 0 {
		ctx.metrics.CPUSeconds *= job.MapCPUFactor
	}
	return mapOutput{buckets: buckets, raw: ctx.bucketRaw, spill: ctx.spill}, nil
}

// partitionSort partitions one chunk of map output into per-reducer
// buckets and sorts each — the final hand-off of every attempt, and every
// flushed chunk of a spilling attempt. Output accounting accumulates, so
// OutRecords/OutBytes cover spilled chunks and the final in-memory one.
func (e *Engine) partitionSort(job *Job, ctx *MapCtx, out []Pair) ([][]Pair, error) {
	reducers := ctx.reducers
	ctx.metrics.OutRecords += int64(len(out))
	// Counting pass: partition every record once up front so the buckets
	// can be carved at exact size out of a single backing array — no
	// per-append growth, no copying when the shuffle hands them over.
	targets := make([]int32, len(out))
	counts := make([]int32, reducers)
	if ctx.bucketRaw == nil {
		ctx.bucketRaw = make([]int64, reducers)
	}
	raw := ctx.bucketRaw
	clear(raw)
	for i := range out {
		pb := pairBytes(out[i].Key, out[i].Val)
		ctx.metrics.OutBytes += pb
		r := ctx.partition(out[i].Key, reducers)
		if r < 0 || r >= reducers {
			return nil, fmt.Errorf("mr: job %s: partition(%q) = %d out of range [0,%d)", job.Name, out[i].Key, r, reducers)
		}
		targets[i] = int32(r)
		counts[r]++
		raw[r] += pb
	}
	offs := make([]int32, reducers+1)
	for r := 0; r < reducers; r++ {
		offs[r+1] = offs[r] + counts[r]
	}
	backing := make([]Pair, len(out))
	cursor := counts // reuse the counts array as per-bucket fill cursors
	copy(cursor, offs[:reducers])
	for i := range out {
		backing[cursor[targets[i]]] = out[i]
		cursor[targets[i]]++
	}
	// Map-side sort (the cluster model's sort-merge shuffle): each bucket
	// is sorted by key exactly once, here, in the map task; reducers only
	// merge. The stable sort preserves emission order within equal keys,
	// so the merged reducer input is bit-for-bit the order a stable sort of
	// the task-ordered concatenation produces. The real CPU this spends is
	// the work the CostModel already charges per emitted record
	// (MapCPUPerEmit covers Hadoop's collector, whose buffer sort is part
	// of the emit path); no separate simulated charge is added.
	buckets := make([][]Pair, reducers)
	for r := 0; r < reducers; r++ {
		b := backing[offs[r]:offs[r+1]:offs[r+1]]
		ctx.sortScratch = sortPairsStable(b, ctx.sortScratch)
		buckets[r] = b
	}
	return buckets, nil
}

// reduceAttempt executes one attempt of one reduce task by streaming the
// k-way merge of its sorted runs: fresh TaskState, per-key grouping
// straight off the merge (adjacent equal keys form a group, as in Hadoop's
// reduce iterator), the reduce function, and external aggregation of
// oversized groups. An injected crash surfaces as a *FaultError, a corrupt
// or truncated run as the merger's plain decode error; the runner undoes
// the attempt's DFS appends either way.
//
// Aliasing contract, the mirror image of Emit's zero-copy one: a reducer
// may retain the key and the value slices past its Reduce call — records
// from memory-backed runs alias the map tasks' stable output, records from
// file-backed runs are copied out of the reader's reused decode buffers —
// but not the vals container, which is per-group scratch.
func (r *round) reduceAttempt(ctx *RedCtx, m *streamMerger) (err error) {
	job := r.job
	defer func() {
		if rec := recover(); rec != nil {
			sig, ok := rec.(faultSignal)
			if !ok {
				panic(rec)
			}
			err = ctx.inject.err(sig.fault)
		}
	}()
	ctx.inject.start()
	if job.TaskState != nil {
		ctx.state = job.TaskState()
	}
	m.reset()
	tm := ctx.metrics
	capRecords := int64(r.oomMem / r.inflation)
	vals := make([][]byte, 0, 16)
	var spillCPU float64
	rec, stable := m.next()
	for rec != nil {
		group := rec.Key
		if !stable {
			group = strings.Clone(group)
		}
		vals = vals[:0]
		var keyBytes int64
		for rec != nil && rec.Key == group {
			val := rec.Val
			if !stable {
				val = append([]byte(nil), val...)
			}
			vals = append(vals, val)
			keyBytes += pairBytes(group, val)
			rec, stable = m.next()
		}
		if int64(len(vals)) > tm.LargestKeyRecords {
			tm.LargestKeyRecords = int64(len(vals))
			tm.LargestKeyBytes = keyBytes
		}
		// A single key whose value list does not fit in memory is
		// aggregated externally — the skewed-group I/O penalty of §3.2.
		// SP-Cube avoids it by pre-aggregating skews in the mappers; the
		// naive algorithm pays it in full.
		if excess := int64(len(vals)) - capRecords; excess > 0 {
			cpu, err := r.eng.externalAgg(ctx, group, vals[int64(len(vals))-excess:])
			if err != nil {
				return err
			}
			spillCPU += cpu
		}
		job.Reduce(ctx, group, vals)
	}
	if m.err != nil {
		return m.err
	}
	if job.ReduceCPUFactor > 0 {
		tm.CPUSeconds *= job.ReduceCPUFactor
	}
	tm.CPUSeconds += spillCPU
	return nil
}

// externalAgg accounts — and, in out-of-core mode, performs — the external
// aggregation of one group whose value list exceeds the task's memory: the
// excess records are encoded through the spill codec, so SpillBytes is the
// exact encoded size, and the charge is SpillPasses passes over those bytes. With SpillBudgetBytes
// > 0 the encoded run is physically written to the attempt's run file.
// The returned CPU charge is added after ReduceCPUFactor scaling.
func (e *Engine) externalAgg(ctx *RedCtx, key string, excess [][]byte) (float64, error) {
	buf := ctx.encBuf[:0]
	prev := ""
	for _, v := range excess {
		buf = appendSpillRecord(buf, prev, key, v)
		prev = key
	}
	ctx.encBuf = buf
	tm := ctx.metrics
	// The cost model charges the bytes the disk absorbs: the framed,
	// compressed size when the run is physically written, the encoded size
	// when out-of-core mode is off and the write is only simulated.
	charged := int64(len(buf))
	if ctx.budget > 0 {
		if ctx.extSpill == nil {
			sf, err := ctx.sd.create("run-r-*")
			if err != nil {
				return 0, err
			}
			ctx.extSpill = sf
		}
		ctx.frameBuf, ctx.blockBuf = blockcodec.AppendAll(ctx.frameBuf[:0], ctx.codec, buf, ctx.blockBuf)
		if err := ctx.extSpill.writeRaw(ctx.frameBuf); err != nil {
			return 0, err
		}
		charged = int64(len(ctx.frameBuf))
		tm.CompressedSpillBytes += charged
	}
	tm.Spills++
	tm.SpillBytes += int64(len(buf))
	ctx.tr.add(PhaseReduce, ctx.Task, TraceEvent{Type: EvSpill, Attempt: ctx.attempt, Bytes: int64(len(buf))})
	return float64(charged) * e.Cfg.Cost.SpillPasses / e.Cfg.Cost.DiskBytesPerSec, nil
}

// isFaultError reports whether err is an injected-fault failure (retryable)
// rather than a deterministic job error.
func isFaultError(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe)
}

// retryableErr reports whether a failed attempt should be retried: injected
// faults, engine kills (node crashes, timeouts, backend refusals), and
// spill I/O failures (a fresh attempt may land on a healthy disk). Anything
// else — partition range violations, context cancellation — is
// deterministic or terminal and fails the task immediately.
func retryableErr(err error) bool {
	return isFaultError(err) || isKillError(err) || isSpillIOError(err)
}

// cancelErr returns the configured context's cancellation error, or nil
// when no context is set or it is still live. Checked at every attempt
// boundary so SIGINT aborts an in-flight round promptly instead of after
// it completes.
func (e *Engine) cancelErr() error {
	if e.Cfg.Context == nil {
		return nil
	}
	return e.Cfg.Context.Err()
}

// forEachTask runs fn(task) for every task in [0, n), on min(Parallelism,
// n) pool goroutines; Parallelism 1 degenerates to a plain in-order loop.
// It returns after all tasks complete (the phase barrier).
func (e *Engine) forEachTask(n int, fn func(task int)) {
	par := e.Cfg.Parallelism
	if par > n {
		par = n
	}
	if par <= 1 {
		for task := 0; task < n; task++ {
			fn(task)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				task := int(next.Add(1)) - 1
				if task >= n {
					return
				}
				fn(task)
			}
		}()
	}
	wg.Wait()
}

// combine groups one mapper's buffered output by key and applies the
// combiner, charging its CPU. Grouping is by hash table — one map probe
// per record instead of a sort — which is legal because group order does
// not matter here: whatever order the combiner's output leaves in, the
// map-side bucket sort in mapAttempt re-establishes the canonical order
// before the shuffle. Values are gathered in first-seen group order.
//
// Rebuilding into out[:0] at the end is safe only because both passes
// below copy every key string header and every Val slice header out of
// out first; the historical version read out[j] while overwriting
// combined = out[:0] in place, which corrupted later groups whenever a
// combiner returned more values than it consumed.
func (e *Engine) combine(job *Job, ctx *MapCtx, out []Pair) []Pair {
	ctx.metrics.CPUSeconds += float64(len(out)) * e.Cfg.Cost.CombineCPUPerRecord
	if len(out) == 0 {
		return out
	}
	// Pass 1: assign each distinct key a dense group index, count group
	// sizes.
	idx := make(map[string]int32, len(out)/2+1)
	gi := make([]int32, len(out))
	var groups int32
	for i := range out {
		g, ok := idx[out[i].Key]
		if !ok {
			g = groups
			groups++
			idx[out[i].Key] = g
		}
		gi[i] = g
	}
	counts := make([]int32, groups)
	for _, g := range gi {
		counts[g]++
	}
	offs := make([]int32, groups+1)
	for g := int32(0); g < groups; g++ {
		offs[g+1] = offs[g] + counts[g]
	}
	// Pass 2: gather each group's values (and one key string per group)
	// into shared backing arrays — after this, nothing reads out's old
	// contents.
	keys := make([]string, groups)
	vals := make([][]byte, len(out))
	cursor := counts // reuse as per-group fill cursors
	copy(cursor, offs[:groups])
	for i := range out {
		g := gi[i]
		if cursor[g] == offs[g] {
			keys[g] = out[i].Key
		}
		vals[cursor[g]] = out[i].Val
		cursor[g]++
	}
	combined := out[:0]
	for g := int32(0); g < groups; g++ {
		for _, v := range job.Combine(keys[g], vals[offs[g]:offs[g+1]]) {
			combined = append(combined, Pair{Key: keys[g], Val: v})
		}
	}
	return combined
}

// FNV-1a constants (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashPartition is the default partitioner: FNV-1a of the key, salted by
// the engine seed. The hash is inlined — byte-identical to feeding
// fnv.New64a() the seed's 8 little-endian bytes followed by the key — so
// the per-emit hot path allocates nothing (the historical version
// allocated a hasher and a []byte(key) copy per call).
func HashPartition(seed uint64, key string, reducers int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*uint(i))))) * fnvPrime64
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	return int(h % uint64(reducers))
}

// split returns the [lo,hi) range of the i-th of k equal input splits.
func split(n, k, i int) (int, int) {
	lo := i * n / k
	hi := (i + 1) * n / k
	return lo, hi
}

// tupleInputBytes returns the encoded input size of tuples, memoized for
// the last slice seen: multi-round algorithms (spcube's sample/skew/group
// rounds, mrcube, pipesort) call RunTuples repeatedly on one relation, and
// the full encoding pass only needs to run once per relation. The cache
// key is the slice identity (base pointer + length) — same tuples, same
// bytes — so a different or mutated-in-place-to-different-length slice
// recomputes.
func (e *Engine) tupleInputBytes(tuples []relation.Tuple) int64 {
	if len(tuples) == 0 {
		return 0
	}
	if e.inBytesPtr == &tuples[0] && e.inBytesN == len(tuples) {
		return e.inBytesVal
	}
	v := tupleInputBytes(tuples)
	e.inBytesPtr, e.inBytesN, e.inBytesVal = &tuples[0], len(tuples), v
	return v
}

func tupleInputBytes(tuples []relation.Tuple) int64 {
	var total int64
	buf := make([]byte, 0, 64)
	for i := range tuples {
		buf = relation.EncodeTuple(buf, tuples[i])
		total += int64(len(buf)) + 2
	}
	return total
}
