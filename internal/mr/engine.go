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
// crash-mid-emit, transient OOM, addressed by round, phase, task
// and attempt); a failed attempt's partial output — buffered map emits,
// uncommitted reduce output — is discarded, the task re-runs with fresh
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
// placed on the dead node are killed and re-placed. Because attempts are
// byte-identical (the re-entrancy contract), re-execution and kills never
// change a single output byte; they only move work and show up in the
// recovery counters.
package mr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
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

// OOMFactor is how many machine memory-fuls of (inflation-adjusted) input
// records a reducer holds before it fails, when its job sets
// FailOnReducerOOM: roughly, a reducer can externally sort/merge a few dozen
// memory-fuls before its task trackers give up, but not an unbounded
// pile-up.
const OOMFactor = 48

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
	// and engine-initiated kills (node loss, backend refusals) are retried:
	// deterministic failures — reducer OOM under FailOnReducerOOM,
	// partition range errors — would fail identically again and abort the
	// round on the first attempt.
	MaxAttempts int
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
	// OutputPrefix overrides the DFS prefix reducer output is written
	// under (default "out/<job name>/").
	OutputPrefix string
}

// RoundResult is the outcome of one engine round.
type RoundResult struct {
	Metrics RoundMetrics
	// Output holds the reducers' EmitSide pairs, in reduce-task order: the
	// input of a following round.
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
}

// New creates an engine. When fs is nil a discard-mode DFS is created.
func New(cfg Config, fs *dfs.FS) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
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
	if cfg.Executor == nil {
		cfg.Executor = localExecutor{}
	}
	if fs == nil {
		fs = dfs.New(true)
	}
	return &Engine{Cfg: cfg, FS: fs}
}

// MemTuples returns m, a machine's memory in tuples, for an input of n
// tuples: Config.MemTuples when set, else the paper's m = n/k over the
// cluster's k machines, max(⌊n/k⌋, 1).
func (e *Engine) MemTuples(n int) int {
	if e.Cfg.MemTuples > 0 {
		return e.Cfg.MemTuples
	}
	return max(n/max(e.Cfg.Workers, 1), 1)
}

// MapCtx is the context passed to map functions.
type MapCtx struct {
	Task    int
	job     *Job
	eng     *Engine
	state   any
	metrics TaskMetrics
	inject  *injector
	// rows holds one IndexRow per emitted record and arena the records'
	// bytes; both are chunk lists that never copy an element to grow, and
	// neither holds a pointer per record. A combine writes its records into
	// spare and swaps the two arenas. A spill flush recycles rows and arena:
	// nothing views the flushed records once they are on disk.
	rows  chunks[IndexRow]
	arena arena
	spare arena

	// Out-of-core spill state (Config.SpillBudgetBytes > 0): pending
	// counts raw emitted bytes since the last flush; once it crosses
	// budget, spillNow combines, partitions, sorts and appends the
	// buffered records to the attempt's run file.
	reducers  int
	partition func(string, int) int
	budget    int64
	pending   int64
	sd        *spillDir
	spill     *spillFile
	sortBuf   IndexScratch
	bucketRaw []int64 // Σ pairBytes per bucket of the last partitionSort
	// flushBuf holds a flush's partitionSort arrays for the next one: a
	// flushed chunk's buckets are on disk once spillNow returns. The final
	// chunk's buckets go to the shuffle, so it gets arrays of its own.
	flushBuf partitionScratch
	// tr (nil when tracing is off; its methods are nil-safe) and attempt
	// address the attempt's spill trace events.
	tr      *roundTracer
	attempt int

	// Spill pipeline state: each flush is encoded through segw, a segment
	// per bucket, and written to spill inline as one image. spillErr is the
	// first failed write — sticky: later flushes are still encoded and
	// accounted but not written, and the attempt fails when it ends.
	segw     segWriter
	spillErr error
}

// mapOutput is one completed map task's shuffle contribution: the sorted
// in-memory per-reducer buckets of rows and the arena chunks their records
// sit in, each bucket's raw byte size (the metadata a spill segment carries,
// so sizing a reducer's input reads no record), plus, when the attempt
// spilled, its run file of earlier sorted flushes. What it keeps per record
// is one 16-byte row and the record's bytes: no pointer.
type mapOutput struct {
	buckets [][]IndexRow
	arena   [][]byte
	raw     []int64
	spill   *spillFile
}

// State returns the task-private state created by Job.TaskState, or nil
// when the job has no TaskState hook.
func (c *MapCtx) State() any { return c.state }

// Emit sends a key/value record to the shuffle. Both are copied into the
// attempt's arena before it returns, so the caller may reuse or modify their
// backing memory at once.
func (c *MapCtx) Emit(key string, val []byte) {
	c.rows.push(c.arena.record(key, val))
	pb := pairBytes(key, val)
	c.metrics.PreCombineRecords++
	c.metrics.PreCombineBytes += pb
	c.inject.onEmit()
	if c.budget > 0 {
		c.pending += pb
		if c.pending >= c.budget {
			c.spillNow()
		}
	}
}

// EmitBytes is Emit for a key built in a byte buffer: both buffers may be
// reused as soon as it returns.
func (c *MapCtx) EmitBytes(key, val []byte) { c.Emit(byteString(key), val) }

// taskAbort carries a non-fault, non-retryable error (spill I/O failures
// inside Emit) out of a map function's call stack; the attempt wrapper
// recovers it into a plain error.
type taskAbort struct{ err error }

// spillNow flushes the attempt's buffered output toward its on-disk run
// file: combine (jobs with a combiner pre-aggregate each flushed chunk,
// Hadoop's per-spill combining), partition, sort, encode the flush and
// append it, then reset the emit buffer and arena for the next chunk. A
// write error is kept in spillErr and surfaces when the attempt ends, not
// here.
func (c *MapCtx) spillNow() {
	if c.job.Combine != nil {
		c.eng.combine(c.job, c)
	}
	buckets, err := c.eng.partitionSort(c.job, c, &c.flushBuf)
	if err != nil {
		panic(taskAbort{err})
	}
	if c.spill == nil {
		sf, err := c.sd.create("run-m-*")
		if err != nil {
			panic(taskAbort{err})
		}
		c.spill = sf
	}
	encBytes := c.segw.encodeFlush(c.spill, buckets, c.arena.used())
	written := int64(len(c.segw.out))
	if c.spillErr == nil {
		c.spillErr = c.segw.write(c.spill)
	}
	c.segw.out = c.segw.out[:0] // unwritten after a failed write
	c.metrics.Spills++
	c.metrics.SpillBytes += encBytes
	c.metrics.CompressedSpillBytes += written
	c.tr.add(PhaseMap, c.Task, TraceEvent{Type: EvSpill, Attempt: c.attempt, Bytes: encBytes})
	c.rows.reset()
	c.arena.reset()
	c.pending = 0
}

// ChargeOps reports n elementary algorithm operations (hash probes, lattice
// node visits) for CPU cost accounting. Only the total counts: one call with
// n and n calls with 1 cost the same.
func (c *MapCtx) ChargeOps(n int64) { c.metrics.Ops += n }

// Workers returns the cluster size k.
func (c *MapCtx) Workers() int { return c.eng.Cfg.Workers }

// RedCtx is the context passed to reduce functions.
type RedCtx struct {
	Task    int
	job     *Job
	eng     *Engine
	out     *dfs.Writer // the attempt's output file, committed if it succeeds
	collect []Pair
	state   any
	metrics *TaskMetrics
	valBuf  []byte
	inject  *injector
	// External-aggregation accounting state: oversized groups are encoded
	// through the spill codec (SpillBytes is the exact encoded size) and,
	// when out-of-core mode is on, block-framed through codec
	// (frameBuf/blockBuf are framing scratch) to size the charged I/O.
	budget   int64
	encBuf   []byte
	codec    blockcodec.Codec
	frameBuf []byte
	blockBuf []byte
	tr       *roundTracer // see MapCtx.tr
	attempt  int
}

// State returns the task-private state created by Job.TaskState, or nil
// when the job has no TaskState hook.
func (c *RedCtx) State() any { return c.state }

// EmitKV writes one output record (an encoded key/value) to the reducer's
// DFS output file. Both are copied before it returns.
func (c *RedCtx) EmitKV(key string, val []byte) {
	c.metrics.OutRecords++
	c.metrics.OutBytes += pairBytes(key, val)
	c.out.AppendKV(key, val)
	c.inject.onEmit()
}

// ValBuf is the attempt's reusable buffer for building a value to pass to
// EmitKV: a reducer appends to (*ValBuf())[:0] and stores the result back,
// so a grown buffer serves the next record.
func (c *RedCtx) ValBuf() *[]byte { return &c.valBuf }

// EmitSide retains one record, apart from the job's DFS output, in the
// round's RoundResult.Output — how multi-round algorithms pass intermediate
// results forward. val is copied.
func (c *RedCtx) EmitSide(key string, val []byte) {
	c.metrics.SideRecords++
	c.metrics.SideBytes += pairBytes(key, val)
	c.collect = append(c.collect, Pair{Key: key, Val: append([]byte(nil), val...)})
	c.inject.onEmit()
}

// ChargeOps reports n elementary algorithm operations.
func (c *RedCtx) ChargeOps(n int64) { c.metrics.Ops += n }

// Workers returns the cluster size k.
func (c *RedCtx) Workers() int { return c.eng.Cfg.Workers }

// RunTuples executes job with the relation's tuples as input, split equally
// among the Workers map tasks (the paper's load assumption, §2.3). A map task
// counts each tuple it reads as an encoded record (relation.TupleLen plus
// RecordOverhead), as RunPairs counts each pair.
func (e *Engine) RunTuples(job *Job, tuples []relation.Tuple) (*RoundResult, error) {
	if job.MapTuple == nil {
		return nil, fmt.Errorf("mr: job %s: RunTuples requires MapTuple", job.Name)
	}
	n := len(tuples)
	return e.run(job, n, func(task int, ctx *MapCtx) {
		lo, hi := split(n, e.Cfg.Workers, task)
		for i := lo; i < hi; i++ {
			ctx.metrics.InRecords++
			ctx.metrics.InBytes += int64(relation.TupleLen(tuples[i]) + RecordOverhead)
			job.MapTuple(ctx, tuples[i])
		}
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
	// delivered at the crash barrier; everything placed after the barrier
	// drains around them.
	rex  RoundExecutor
	dead []bool

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

// open starts the round on the execution backend. A backend that cannot
// start the round fails it plainly instead of hanging.
func (r *round) open() error {
	e := r.eng
	var err error
	r.rex, err = e.Cfg.Executor.RoundStart(r.index, e.Cfg.Workers, r.dead)
	if err != nil {
		r.rm.Failed = true
		r.rm.FailReason = fmt.Sprintf("execution backend: %v", err)
		r.rm.finalize()
		r.rm.WallSeconds = time.Since(r.start).Seconds()
		r.tr.roundEnd(r.rm)
		return fmt.Errorf("mr: job %s: execution backend: %w", r.job.Name, err)
	}
	r.sd = newSpillDir(e.Cfg.SpillDir, e.Cfg.SpillWriteWrapper)
	return nil
}

// finish closes an opened round on every exit path: finalize the metrics
// and emit the round-end event.
func (r *round) finish() {
	r.rm.finalize()
	r.rm.WallSeconds = time.Since(r.start).Seconds()
	r.tr.roundEnd(r.rm)
}

// mapStage runs every map task on the worker pool. Each task partitions and
// sorts its own output into private per-reducer buckets, so bucket contents
// are independent of task scheduling; a failed attempt's buffered output
// dies with its context, so nothing of it reaches the shuffle.
func (r *round) mapStage() error {
	workers := r.eng.Cfg.Workers
	r.tr.startPhase(workers)
	r.eng.forEachTask(workers, func(task int) { r.runMapTask(task, false) })
	r.tr.flushPhase()
	return r.mapFailure()
}

// runMapTask runs one map task through the attempt runner — its first run,
// or the re-execution of a completed task whose stored output was lost —
// and records the winning attempt.
func (r *round) runMapTask(task int, reexec bool) {
	win, err := r.runTask(&taskSpec{
		phase: PhaseMap, task: task, tm: &r.rm.Mappers[task], reexec: reexec,
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
	r.eng.forEachTask(len(lost), func(i int) { r.runMapTask(lost[i], true) })
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
				runs = append(runs, streamSource{rows: mo.buckets[red], arena: mo.arena, raw: mo.raw[red]})
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
	for task, runs := range srcs {
		tm := &r.rm.Reducers[task]
		for _, src := range runs {
			records, raw := src.size()
			tm.InRecords += records
			tm.InBytes += raw
			if src.seg != nil {
				// The encoded length is charged as one streaming read pass.
				tm.runIOBytes += src.seg.length
			}
		}
		r.setCPUSeconds(PhaseReduce, tm, false)
		if r.job.FailOnReducerOOM && float64(tm.InRecords)*r.inflation > OOMFactor*r.oomMem {
			r.rm.Failed = true
			r.rm.FailReason = fmt.Sprintf("reducer %d out of memory: %d input records (×%.0f inflation) exceed %d×m (m=%d tuples)",
				task, tm.InRecords, r.inflation, OOMFactor, r.memTuples)
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
// rewinds it. Each attempt writes its own output, and only the winning one
// is committed to the DFS, so the output file holds exactly one successful
// attempt's records.
func (r *round) runReduceTask(task int, runs []streamSource) (*taskAttempt, error) {
	tm := &r.rm.Reducers[task] // holds the pre-scan's input accounting
	m := new(streamMerger)
	if r.outOfCore && len(runs) > r.eng.Cfg.MergeFanIn {
		// More live runs than MergeFanIn are first consolidated through
		// intermediate on-disk merges. That happens once, before any
		// attempt, so its failure fails the task without a retry.
		var err error
		runs, err = r.fanInMerge(m, runs, task, tm)
		r.setCPUSeconds(PhaseReduce, tm, false)
		if err != nil {
			tm.Attempts = 1
			r.tr.attemptFailure(PhaseReduce, task, 0, err)
			return nil, err
		}
	}
	m.open(runs)
	fs := r.eng.FS
	file := fmt.Sprintf("%spart-r-%05d", r.outPrefix, task)
	return r.runTask(&taskSpec{
		phase: PhaseReduce, task: task, tm: tm,
		body: func(a *taskAttempt) {
			ctx := r.newRedCtx(task, a)
			a.err = r.reduceAttempt(ctx, m)
			a.out, a.collect, a.wasted = ctx.out, ctx.collect, a.metrics.OutBytes+a.metrics.SideBytes
		},
		commit: func(a *taskAttempt) {
			// The winning attempt lives as long as the round; its chunks
			// need not.
			fs.Commit(file, a.out)
			a.out = nil
		},
	})
}

// newMapCtx builds one map attempt's context, wiring in the spill
// machinery (budget, partitioner, run-file directory, codec).
func (r *round) newMapCtx(task int, a *taskAttempt) *MapCtx {
	return &MapCtx{
		Task: task, job: r.job, eng: r.eng, inject: a.inj,
		reducers: r.reducers, partition: r.partition,
		budget: r.eng.Cfg.SpillBudgetBytes, sd: r.sd, segw: segWriter{codec: r.codec},
		tr: r.tr, attempt: a.index,
	}
}

// newRedCtx builds one reduce attempt's context, accounting into the
// attempt's metrics.
func (r *round) newRedCtx(task int, a *taskAttempt) *RedCtx {
	return &RedCtx{
		Task: task, job: r.job, eng: r.eng, out: r.eng.FS.NewWriter(),
		metrics: &a.metrics, inject: a.inj, budget: r.eng.Cfg.SpillBudgetBytes,
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
		// A kept spill write error fails an attempt that otherwise ended
		// well.
		if err == nil {
			err = ctx.spillErr
		}
		if err != nil {
			ctx.spill.discard()
			ctx.spill = nil
			mout = mapOutput{}
		} else if ctx.tr != nil && ctx.spill != nil {
			// Every flush is on disk; report each one's compressed size.
			// Emitted only for surviving attempts, at a deterministic
			// point (before the attempt returns), so the trace stream stays
			// bit-identical at any parallelism.
			for _, segs := range ctx.spill.spills {
				ev := TraceEvent{Type: EvSpillFlush, Attempt: ctx.attempt}
				for _, seg := range segs {
					ev.Bytes += seg.length
					ev.Records += seg.records
				}
				ctx.tr.add(PhaseMap, ctx.Task, ev)
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
	if job.Combine != nil {
		r.eng.combine(job, ctx)
	}
	buckets, err := r.eng.partitionSort(job, ctx, nil)
	if err != nil {
		return mapOutput{}, err
	}
	// The used chunks alone: the list may hold recycled ones past them.
	arena := slices.Clone(ctx.arena.used())
	return mapOutput{buckets: buckets, arena: arena, raw: ctx.bucketRaw, spill: ctx.spill}, nil
}

// partitionSort partitions one chunk of map output — ctx's rows — into
// per-reducer buckets and sorts each — the final hand-off of every attempt,
// and every flushed chunk of a spilling attempt. The buckets are carved from
// buf's arrays, grown as needed, or from fresh ones when buf is nil. Output
// accounting accumulates, so OutRecords/OutBytes cover spilled chunks and
// the final in-memory one.
func (e *Engine) partitionSort(job *Job, ctx *MapCtx, buf *partitionScratch) ([][]IndexRow, error) {
	reducers := ctx.reducers
	arena := ctx.arena.used()
	n := ctx.rows.len()
	ctx.metrics.OutRecords += int64(n)
	// Counting pass: partition every record once up front so the buckets
	// can be carved at exact size out of a single backing array — no
	// per-append growth, no copying when the shuffle hands them over.
	var fresh partitionScratch
	if buf == nil {
		buf = &fresh
	}
	targets, backing, buckets := buf.carve(n, reducers)
	counts := make([]int32, reducers)
	if ctx.bucketRaw == nil {
		ctx.bucketRaw = make([]int64, reducers)
	}
	raw := ctx.bucketRaw
	clear(raw)
	i := 0
	for _, chunk := range ctx.rows.used() {
		for _, row := range chunk {
			key, val := recordAt(arena, row)
			pb := pairBytes(key, val)
			ctx.metrics.OutBytes += pb
			r := ctx.partition(key, reducers)
			if r < 0 || r >= reducers {
				return nil, fmt.Errorf("mr: job %s: partition(%q) = %d out of range [0,%d)", job.Name, key, r, reducers)
			}
			targets[i] = int32(r)
			counts[r]++
			raw[r] += pb
			i++
		}
	}
	offs := make([]int32, reducers+1)
	for r := 0; r < reducers; r++ {
		offs[r+1] = offs[r] + counts[r]
	}
	cursor := counts // reuse the counts array as per-bucket fill cursors
	copy(cursor, offs[:reducers])
	i = 0
	for _, chunk := range ctx.rows.used() {
		for _, row := range chunk {
			backing[cursor[targets[i]]] = row
			cursor[targets[i]]++
			i++
		}
	}
	// Map-side sort (the cluster model's sort-merge shuffle): each bucket
	// is sorted by key exactly once, here, in the map task; reducers only
	// merge. The stable sort preserves emission order within equal keys,
	// so the merged reducer input is bit-for-bit the order a stable sort of
	// the task-ordered concatenation produces. The real CPU this spends is
	// the work the CostModel already charges per emitted record
	// (MapCPUPerEmit covers Hadoop's collector, whose buffer sort is part
	// of the emit path); no separate simulated charge is added.
	for r := 0; r < reducers; r++ {
		b := backing[offs[r]:offs[r+1]:offs[r+1]]
		sortRows(b, arena, &ctx.sortBuf)
		buckets[r] = b
	}
	return buckets, nil
}

// partitionScratch is the three arrays one partitionSort carves its
// buckets from.
type partitionScratch struct {
	targets []int32
	backing []IndexRow
	buckets [][]IndexRow
}

// carve returns the scratch's arrays at n records and reducers buckets,
// growing them where they are short.
func (s *partitionScratch) carve(n, reducers int) ([]int32, []IndexRow, [][]IndexRow) {
	s.targets = slices.Grow(s.targets[:0], n)[:n]
	s.backing = slices.Grow(s.backing[:0], n)[:n]
	s.buckets = slices.Grow(s.buckets[:0], reducers)[:reducers]
	return s.targets, s.backing, s.buckets
}

// reduceAttempt executes one attempt of one reduce task by streaming the
// k-way merge of its sorted runs: fresh TaskState, per-key grouping
// straight off the merge (adjacent equal keys form a group, as in Hadoop's
// reduce iterator), the reduce function, and external aggregation of
// oversized groups. An injected crash surfaces as a *FaultError, a corrupt
// or truncated run as the merger's plain decode error; the runner commits
// the attempt's output only if neither happened.
//
// Aliasing contract: a reducer may retain the key and the value slices past
// its Reduce call — records from memory-backed runs view the map tasks'
// arenas, which are never rewritten once handed to the shuffle, records
// from file-backed runs are copied out of the reader's reused decode
// buffers into the attempt's arena — but not the vals container, which is
// per-group scratch.
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
	var copies arena
	rec, stable := m.next()
	for rec != nil {
		group := rec.Key
		if !stable {
			group = copies.string(group)
		}
		vals = vals[:0]
		var keyBytes int64
		for rec != nil && rec.Key == group {
			val := rec.Val
			if !stable {
				val = copies.bytes(val)
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
			externalAgg(ctx, group, vals[int64(len(vals))-excess:])
		}
		job.Reduce(ctx, group, vals)
	}
	return m.err
}

// Chunk sizes, in bytes, of a chunk list: the first chunk is minChunk, each
// later one twice its predecessor up to maxChunk.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// chunks is an append-only list of chunks that is never copied to grow: a
// chunk that is full stays where it is and the next one is started, so an
// element's address holds for as long as the list is not reset, and a view
// of it keeps only its own chunk alive. reset recycles the chunks, in order,
// for the caller to refill.
type chunks[T any] struct {
	list  [][]T // every chunk allocated; list[:inUse] hold the elements
	inUse int
}

// room returns the chunk being filled, first moving on to the next chunk —
// recycled, or new at twice the last one's size up to maxChunk bytes — until
// one has room for n more elements.
func (c *chunks[T]) room(n int) *[]T {
	for {
		if c.inUse > 0 {
			if last := &c.list[c.inUse-1]; cap(*last)-len(*last) >= n {
				return last
			}
		}
		if c.inUse == len(c.list) {
			size := int(unsafe.Sizeof(*new(T)))
			capacity := minChunk / size
			if c.inUse > 0 {
				capacity = min(2*cap(c.list[c.inUse-1]), maxChunk/size)
			}
			c.list = append(c.list, make([]T, 0, max(capacity, n)))
		}
		c.inUse++
	}
}

// push appends v.
func (c *chunks[T]) push(v T) {
	last := c.room(1)
	*last = append(*last, v)
}

// used returns the chunks that hold elements, in order.
func (c *chunks[T]) used() [][]T { return c.list[:c.inUse] }

// len returns the number of elements.
func (c *chunks[T]) len() int {
	n := 0
	for _, chunk := range c.used() {
		n += len(chunk)
	}
	return n
}

// reset empties the list, keeping its chunks for the elements that follow,
// in order — all but those over maxChunk bytes, each of which was made for
// one element too large for a chunk.
func (c *chunks[T]) reset() {
	size := int(unsafe.Sizeof(*new(T)))
	kept := c.list[:0]
	for _, chunk := range c.list {
		if cap(chunk)*size <= maxChunk {
			kept = append(kept, chunk[:0])
		}
	}
	clear(c.list[len(kept):])
	c.list, c.inUse = kept, 0
}

// arena is an attempt's copies of records' keys and values: a map attempt's
// framed output records, and a reduce attempt's copies of file-backed
// records. Copies are appended to a byte chunk list, one allocation per
// chunk instead of one per copy, and a chunk is not rewritten until the
// arena is reset, so every slice and string handed out stays valid for as
// long as it is retained and keeps only its chunk alive.
type arena struct{ chunks[byte] }

// record copies one map output record into the arena and returns its row.
// The row's Pos is the record's address — the chunk's index in the high 16
// bits, the record's offset in it in the low 16 — and its Tag the key's
// length in the low 16 bits and the value's in the high 16, so that a
// record is read without touching its bytes first. A record with either
// length over 0xfffe has Tag bigRecord and the two lengths framed as 4-byte
// little-endian words before its key. Every offset fits: a chunk of more
// than maxChunk bytes holds one record, at offset 0, and is not recycled,
// and every record takes at least one byte, so none starts at a full
// chunk's end. 16 bits of chunk index let a map attempt hold 2^16 chunks
// (4 GiB) between spill flushes; one more fails the attempt plainly.
func (a *arena) record(key string, val []byte) IndexRow {
	tag, size := uint32(len(key))|uint32(len(val))<<16, len(key)+len(val)
	if len(key) >= 0xffff || len(val) >= 0xffff {
		tag, size = bigRecord, size+8
	}
	last := a.room(max(size, 1))
	if a.inUse > 1<<16 {
		panic(taskAbort{fmt.Errorf("mr: a map attempt's in-memory output exceeds %d arena chunks; set a spill budget", 1<<16)})
	}
	off, b := len(*last), *last
	if tag == bigRecord {
		b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, uint32(len(key))), uint32(len(val)))
	}
	*last = append(append(b, key...), val...)
	return IndexRow{Prefix: KeyPrefix(key), Pos: uint32(a.inUse-1)<<16 | uint32(off), Tag: tag}
}

// bigRecord is the Tag of a map output row whose record frames its lengths.
const bigRecord = math.MaxUint32

// recordAt returns the key and the value of the record row addresses in a
// map attempt's arena chunks, as views of its bytes; the value is capped so
// that appending to it cannot reach the next record.
func recordAt(arena [][]byte, row IndexRow) (key string, val []byte) {
	if row.Tag == bigRecord {
		return bigRecordAt(arena[row.Pos>>16][row.Pos&0xffff:])
	}
	c := arena[row.Pos>>16][row.Pos&0xffff:]
	k, end := row.Tag&0xffff, row.Tag&0xffff+row.Tag>>16
	return unsafe.String(unsafe.SliceData(c), k), c[k:end:end]
}

// bigRecordAt is recordAt for a bigRecord, whose bytes start b.
func bigRecordAt(b []byte) (key string, val []byte) {
	kl, vl := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	return byteString(b[:kl]), b[kl : kl+vl : kl+vl]
}

// bytes copies b, capped so that appends through the copy cannot reach the
// next one; an empty b copies to nil, as append([]byte(nil), b...) does. A
// copy larger than a quarter of a full chunk gets its own allocation.
func (a *arena) bytes(b []byte) []byte {
	if len(b) == 0 || len(b) > maxChunk/4 {
		return append([]byte(nil), b...)
	}
	last := a.room(len(b))
	m := len(*last)
	*last = append(*last, b...)
	return (*last)[m:len(*last):len(*last)]
}

// string copies s, building the copy over chunk bytes.
func (a *arena) string(s string) string {
	b := a.bytes(unsafe.Slice(unsafe.StringData(s), len(s)))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// externalAgg charges the external aggregation of one group whose value
// list exceeds the task's memory — the skewed-group I/O penalty — without
// performing it: the values stay in memory and go to Reduce, so a copy on
// disk would be written only to be deleted. The excess records are encoded
// through the spill codec, so SpillBytes is the exact encoded size; with
// SpillBudgetBytes > 0 they are also framed through the run files' block
// codec, and CompressedSpillBytes is the framed size a run file would hold.
// The charge is SpillPasses passes over the framed bytes, or over the encoded
// ones when out-of-core mode is off, tallied in aggBytes.
func externalAgg(ctx *RedCtx, key string, excess [][]byte) {
	buf := ctx.encBuf[:0]
	prev := ""
	for _, v := range excess {
		buf = appendSpillRecord(buf, prev, key, v)
		prev = key
	}
	ctx.encBuf = buf
	tm := ctx.metrics
	charged := int64(len(buf))
	if ctx.budget > 0 {
		ctx.frameBuf, ctx.blockBuf = blockcodec.AppendAll(ctx.frameBuf[:0], ctx.codec, buf, ctx.blockBuf)
		charged = int64(len(ctx.frameBuf))
		tm.CompressedSpillBytes += charged
	}
	tm.Spills++
	tm.SpillBytes += int64(len(buf))
	tm.aggBytes += charged
	ctx.tr.add(PhaseReduce, ctx.Task, TraceEvent{Type: EvSpill, Attempt: ctx.attempt, Bytes: int64(len(buf))})
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
// combiner, charging its CPU, and leaves the combined records as the
// attempt's output. Grouping is by hash table — one map probe per record
// instead of a sort — which is legal because group order does not matter
// here: whatever order the combiner's output leaves in, the map-side bucket
// sort in partitionSort re-establishes the canonical order before the
// shuffle. Values are gathered in first-seen group order.
//
// The combined records are written into the attempt's spare arena, which
// then becomes its arena: the combiner's keys and values view the old one,
// and may be returned as they are, so it is not rewritten until the next
// combine.
func (e *Engine) combine(job *Job, ctx *MapCtx) {
	n := ctx.rows.len()
	if n == 0 {
		return
	}
	arena := ctx.arena.used()
	// Pass 1: assign each distinct key a dense group index, count group
	// sizes.
	idx := make(map[string]int32, n/2+1)
	gi := make([]int32, 0, n)
	var groups int32
	for _, chunk := range ctx.rows.used() {
		for _, row := range chunk {
			key, _ := recordAt(arena, row)
			g, ok := idx[key]
			if !ok {
				g = groups
				groups++
				idx[key] = g
			}
			gi = append(gi, g)
		}
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
	// into shared backing arrays.
	keys := make([]string, groups)
	vals := make([][]byte, n)
	cursor := counts // reuse as per-group fill cursors
	copy(cursor, offs[:groups])
	i := 0
	for _, chunk := range ctx.rows.used() {
		for _, row := range chunk {
			key, val := recordAt(arena, row)
			g := gi[i]
			if cursor[g] == offs[g] {
				keys[g] = key
			}
			vals[cursor[g]] = val
			cursor[g]++
			i++
		}
	}
	ctx.rows.reset()
	ctx.spare.reset()
	ctx.arena, ctx.spare = ctx.spare, ctx.arena
	for g := int32(0); g < groups; g++ {
		for _, v := range job.Combine(keys[g], vals[offs[g]:offs[g+1]]) {
			ctx.rows.push(ctx.arena.record(keys[g], v))
		}
	}
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
