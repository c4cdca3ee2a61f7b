package mr

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer receives structured lifecycle events from the engine. Install one
// through Config.Tracer; the nil default disables tracing entirely and adds
// no allocations to the engine (all trace hooks are nil-receiver no-ops).
//
// Delivery contract: events are delivered sequentially from the goroutine
// that called Engine.RunTuples/RunPairs — task-level events are buffered
// per task while a phase's tasks run (possibly concurrently) and forwarded
// in task-index order at the phase barrier. The stream is therefore
// deterministic: for a fixed input, configuration and fault plan, every
// field except Time is bit-for-bit identical at any Config.Parallelism.
// Implementations need no internal locking unless they are shared between
// engines.
type Tracer interface {
	TraceEvent(e TraceEvent)
}

// Trace event types, in the order they can appear within one round.
const (
	// EvRoundStart opens a round: Tasks mappers, Reducers reducers.
	EvRoundStart = "round-start"
	// EvTaskStart marks one task attempt starting; Attempt > 0 means the
	// task is being re-executed after a fault.
	EvTaskStart = "task-start"
	// EvFaultInjected reports that Config.Faults armed a fault for the
	// attempt (Fault holds the kind); a task-start carrying one is followed
	// by EvTaskRetry or EvTaskFailure (a mid-emit fault only fires if the
	// attempt reaches its emit).
	EvFaultInjected = "fault-injected"
	// EvTaskRetry reports a failed attempt that will be re-executed.
	EvTaskRetry = "task-retry"
	// EvTaskFailure reports a permanent task failure (retries exhausted or
	// a non-retryable error such as reducer OOM); the round fails.
	EvTaskFailure = "task-failure"
	// EvNodeCrash is a round-level event reporting a node-crash fault
	// killing failure domain Node at the round's shuffle barrier.
	EvNodeCrash = "node-crash"
	// EvFetchFail reports that map task Task's completed output, stored on
	// the crashed Node, could not be fetched by the round's Records
	// reducers; the task is re-executed (a task-start at the next attempt
	// index follows).
	EvFetchFail = "fetch-fail"
	// EvSpill is fired once per spill, inline by the attempt that spills:
	// the map attempt's flush of a sorted run to disk under
	// Config.SpillBudgetBytes, and the reducer's external aggregation of a
	// group that exceeded its memory (§3.2 skew penalty), which is charged
	// but writes no file. Bytes is the exact encoded run size.
	EvSpill = "spill"
	// EvSpillFlush is fired once per map-side spill flush, all of an
	// attempt's together when the attempt ends, after its EvSpill events.
	// Attempts that crashed or aborted emit none — their writes are
	// discarded with them; attempts that completed and were only then
	// killed by the execution backend did write, and their events stand. Bytes is the framed, block-compressed size physically
	// written — the on-disk counterpart of the preceding EvSpill's
	// pre-compression Bytes — and Records the flush's record count.
	EvSpillFlush = "spill-flush"
	// EvMergePass reports one intermediate fan-in merge: a reduce task
	// with more live runs than MergeFanIn merged a group of them
	// into a new on-disk run before streaming its final merge. Records and
	// Bytes are the merged run's record count and compressed size.
	EvMergePass = "merge-pass"
	// EvTaskSuccess closes a task: output Records/Bytes and simulated
	// CPUSeconds of the successful attempt.
	EvTaskSuccess = "task-success"
	// EvShuffle reports the round's post-combine map output volume crossing
	// the shuffle barrier.
	EvShuffle = "shuffle"
	// EvRoundEnd closes a round: output Records/Bytes, simulated
	// SimSeconds, and the failure flag.
	EvRoundEnd = "round-end"

	// EvMaintStart opens an incremental-maintenance cycle (Round is the
	// cycle ordinal; Records/Bytes carry the batch's appended/deleted tuple
	// counts; Mode is "rebuild" for the initial build, else "delta"). It is
	// emitted by the maintainer, not the engine, around the cycle's MR
	// rounds; the maintainer numbers these events with its own Seq counter.
	EvMaintStart = "maint-start"
	// EvMaintEnd closes a maintenance cycle: Records carries the number of
	// changed c-groups, Failed whether the cycle was rolled back.
	EvMaintEnd = "maint-end"
)

// TraceEvent is one structured engine lifecycle event. Numeric fields are
// populated per event type (see the Ev* constants); unused fields are
// zero and omitted from the JSON form. Time is the only field excluded
// from the determinism contract.
type TraceEvent struct {
	// Seq numbers events consecutively per engine, in delivery order.
	Seq int64 `json:"seq"`
	// Time is the wall-clock timestamp the event was recorded at. It is
	// excluded from the determinism contract.
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Round is the engine's 0-based round counter; Job the round's name.
	Round int    `json:"round"`
	Job   string `json:"job"`
	// Phase and Task identify the task for task-level events; Task is -1
	// on round-level events (round-start, shuffle, round-end).
	Phase   string `json:"phase,omitempty"`
	Task    int    `json:"task"`
	Attempt int    `json:"attempt,omitempty"`
	// Tasks/Reducers are the round's map and reduce task counts
	// (round-start only).
	Tasks    int `json:"tasks,omitempty"`
	Reducers int `json:"reducers,omitempty"`
	// Records/Bytes quantify the event's data volume: task output on
	// task-success, shuffle volume on shuffle, spilled bytes on spill,
	// round output on round-end.
	Records int64 `json:"records,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// CPUSeconds is the successful attempt's simulated CPU charge
	// (task-success only); SimSeconds the round's simulated duration
	// (round-end only). Both are deterministic, unlike wall time, which
	// trace events deliberately do not carry.
	CPUSeconds float64 `json:"cpuSeconds,omitempty"`
	SimSeconds float64 `json:"simSeconds,omitempty"`
	// Fault is the injected fault kind (fault-injected only).
	Fault string `json:"fault,omitempty"`
	// Node is the failure domain a node-crash killed or a fetch-fail lost
	// its map output on (node-crash and fetch-fail only).
	Node int `json:"node,omitempty"`
	// Err describes the failure on task-retry/task-failure, and the round's
	// FailReason on a failed round-end.
	Err string `json:"err,omitempty"`
	// Failed marks a failed round's round-end event.
	Failed bool `json:"failed,omitempty"`
	// Mode is a maintenance cycle's mode: "rebuild" for the initial build,
	// else "delta" (maint-start only).
	Mode string `json:"mode,omitempty"`
}

// JSONLTracer writes one JSON object per event (JSON Lines) to an
// io.Writer — the bundled sink behind the CLIs' -trace flag. It locks
// around writes so one sink may be shared by several engines.
type JSONLTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLTracer creates a JSON-lines tracer writing to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w)}
}

// TraceEvent writes the event as one JSON line.
func (t *JSONLTracer) TraceEvent(e TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Encode errors are unreportable mid-run; tracing is best-effort.
	_ = t.enc.Encode(e)
}

// SliceTracer collects events in memory, for tests and programmatic
// inspection.
type SliceTracer struct {
	Events []TraceEvent
}

// TraceEvent appends the event.
func (t *SliceTracer) TraceEvent(e TraceEvent) { t.Events = append(t.Events, e) }

// roundTracer buffers one round's task-level events per task while the
// phase's tasks run concurrently, and flushes them in task-index order at
// the phase barrier, keeping the delivered stream deterministic at any
// parallelism. A nil roundTracer (tracing disabled) is inert: every method
// is a nil-receiver no-op, so the engine calls them unconditionally without
// allocating.
type roundTracer struct {
	eng   *Engine
	round int
	job   string
	buf   [][]TraceEvent
}

// tracerFor returns the round's tracer, or nil when tracing is disabled.
func (e *Engine) tracerFor(round int, job string) *roundTracer {
	if e.Cfg.Tracer == nil {
		return nil
	}
	return &roundTracer{eng: e, round: round, job: job}
}

// emit stamps the sequence number and delivers one event. Only called from
// the engine's run goroutine (round-level events and barrier flushes), so
// the counter needs no synchronization.
func (t *roundTracer) emit(ev TraceEvent) {
	ev.Seq = t.eng.traceSeq
	t.eng.traceSeq++
	t.eng.Cfg.Tracer.TraceEvent(ev)
}

// event fills the round coordinates and emits a round-level event: safe on
// a nil tracer, and only to be called from the run goroutine so sequence
// numbering stays deterministic.
func (t *roundTracer) event(ev TraceEvent) {
	if t == nil {
		return
	}
	ev.Time = time.Now()
	ev.Round = t.round
	ev.Job = t.job
	ev.Task = -1
	t.emit(ev)
}

// startPhase sizes the per-task buffers for a phase of n tasks.
func (t *roundTracer) startPhase(n int) {
	if t == nil {
		return
	}
	t.buf = make([][]TraceEvent, n)
}

// add buffers a task-level event. Safe to call from the task's worker
// goroutine: each task appends only to its own buffer.
func (t *roundTracer) add(phase Phase, task int, ev TraceEvent) {
	if t == nil {
		return
	}
	ev.Time = time.Now()
	ev.Round = t.round
	ev.Job = t.job
	ev.Phase = phase.String()
	ev.Task = task
	t.buf[task] = append(t.buf[task], ev)
}

// flushPhase delivers the buffered task events in task-index order.
func (t *roundTracer) flushPhase() {
	if t == nil {
		return
	}
	for _, events := range t.buf {
		for _, ev := range events {
			t.emit(ev)
		}
	}
	t.buf = nil
}

func (t *roundTracer) roundStart(mappers, reducers int) {
	t.event(TraceEvent{Type: EvRoundStart, Tasks: mappers, Reducers: reducers})
}

// attemptStart records a task attempt starting, plus the armed fault when
// injection targets the attempt.
func (t *roundTracer) attemptStart(phase Phase, task, attempt int, inj *injector) {
	if t == nil {
		return
	}
	t.add(phase, task, TraceEvent{Type: EvTaskStart, Attempt: attempt})
	if inj != nil {
		t.add(phase, task, TraceEvent{Type: EvFaultInjected, Attempt: attempt, Fault: inj.fault.Kind.String()})
	}
}

// attemptRetry records a failed attempt that will be re-executed.
func (t *roundTracer) attemptRetry(phase Phase, task, attempt int, err error) {
	if t == nil {
		return
	}
	t.add(phase, task, TraceEvent{Type: EvTaskRetry, Attempt: attempt, Err: err.Error()})
}

// attemptFailure records a permanent task failure.
func (t *roundTracer) attemptFailure(phase Phase, task, attempt int, err error) {
	if t == nil {
		return
	}
	t.add(phase, task, TraceEvent{Type: EvTaskFailure, Attempt: attempt, Err: err.Error()})
}

// taskSuccess records a task completing. Spill events are not synthesized
// here: the spill writer fires them itself, per flush, as they happen.
func (t *roundTracer) taskSuccess(phase Phase, task, attempt int, tm *TaskMetrics) {
	if t == nil {
		return
	}
	records, bytes := tm.OutRecords, tm.OutBytes
	if phase == PhaseReduce {
		records += tm.SideRecords
		bytes += tm.SideBytes
	}
	t.add(phase, task, TraceEvent{
		Type: EvTaskSuccess, Attempt: attempt,
		Records: records, Bytes: bytes, CPUSeconds: tm.CPUSeconds,
	})
}

// nodeCrash records a failure domain dying at the round's shuffle barrier.
func (t *roundTracer) nodeCrash(node int) {
	t.event(TraceEvent{Type: EvNodeCrash, Node: node})
}

// fetchFail records map task task's completed output (stored on the dead
// node) being unfetchable by the round's reducers. Called from the run
// goroutine at the shuffle barrier, between the map and re-execution
// phases, so it emits directly rather than buffering.
func (t *roundTracer) fetchFail(task, node, reducers int) {
	if t == nil {
		return
	}
	t.emit(TraceEvent{
		Time: time.Now(), Type: EvFetchFail, Round: t.round, Job: t.job,
		Phase: PhaseMap.String(), Task: task, Node: node, Records: int64(reducers),
	})
}

func (t *roundTracer) shuffle(rm *RoundMetrics) {
	t.event(TraceEvent{Type: EvShuffle, Records: rm.ShuffleRecords, Bytes: rm.ShuffleBytes})
}

func (t *roundTracer) roundEnd(rm *RoundMetrics) {
	t.event(TraceEvent{
		Type: EvRoundEnd, Records: rm.OutputRecords, Bytes: rm.OutputBytes,
		SimSeconds: rm.SimSeconds, Failed: rm.Failed, Err: rm.FailReason,
	})
}
