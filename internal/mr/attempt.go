package mr

import (
	"fmt"
	"time"

	"github.com/spcube/spcube/internal/dfs"
)

// This file is the engine's one attempt runner. Every execution of task
// code — a map or reduce task's first run, the re-execution of a map task
// whose stored output died with its node — goes through runTask →
// runAttempt, so placement, the backend's begin/end hooks, the retry
// budget, the recovery counters and the trace events are written once.
// What differs between callers is data on a taskSpec:
//
//	             attempt index, budget      placed around      keeping / discarding an attempt
//	first run    0.., MaxAttempts           map: nothing;      spec.commit / spec.undo
//	                                        reduce: r.dead
//	re-execution continues the lost run's   r.dead             spec.commit / spec.undo
//	             numbering, fresh budget

// taskSpec describes one task to runTask.
type taskSpec struct {
	phase Phase
	task  int
	// tm is the task's metrics slot. On entry it holds the accounting every
	// attempt starts from and a failed task keeps — zero for a map task, the
	// pre-scan's input accounting, CPU seconds included, for a reduce task —
	// or, when reexec is set, the lost run's metrics. runTask overwrites it
	// on success and on failure and leaves it untouched on cancellation.
	tm *TaskMetrics
	// reexec marks the re-execution of a completed map task whose stored
	// output was lost to a node crash: attempt numbering continues after
	// the lost run's with a fresh MaxAttempts budget (Hadoop restarts the
	// counter for a re-launched map), and the lost run's output and wall
	// time move into WastedBytes/RetryWallSeconds.
	reexec bool
	// body runs one placed and opened attempt's task code, filling in the
	// attempt's metrics, wasted bytes, output and error.
	body func(a *taskAttempt)
	// commit publishes the output of an attempt that succeeded, after the
	// backend's EndAttempt: reduce — append its output to the DFS file; nil
	// for a map task, whose output the backend stores.
	commit func(a *taskAttempt)
	// undo drops the output of an attempt whose body ran and failed: map —
	// delete its spill run file (the buckets die with the attempt); nil for
	// a reduce task, whose uncommitted output dies with the attempt.
	undo func(a *taskAttempt)
}

// taskAttempt is one execution of a task's code and what came of it.
type taskAttempt struct {
	index int // attempt index: selects the fault, the placement, the trace events
	node  int // where the attempt ran (and a map attempt's output is stored)
	inj   *injector
	err   error
	ran   bool    // the body ran, so there may be output to undo
	wall  float64 // real seconds, placement to close

	// Filled in by the body. metrics is the attempt's own accounting on top
	// of the task's base; wasted is the work lost if the attempt is
	// discarded (map: pre-combine emit bytes; reduce: output and side bytes).
	metrics TaskMetrics
	wasted  int64
	mout    mapOutput   // map: sorted buckets and run file
	collect []Pair      // reduce: collected side output
	out     *dfs.Writer // reduce: the output file's records
}

// runTask runs one task to success or permanent failure and returns the
// winning attempt. Failed attempts are undone and — when the failure is
// retryable (injected faults, engine kills, spill I/O; see retryableErr) —
// retried at the next attempt index until the MaxAttempts budget runs out.
// A canceled context is returned plainly, between attempts.
func (r *round) runTask(s *taskSpec) (*taskAttempt, error) {
	base := *s.tm
	first := 0
	var reexecs, wasted int64
	var retryWall float64
	if s.reexec {
		prev := base
		base = TaskMetrics{}
		first = int(prev.Attempts)
		reexecs = prev.Reexecutions + 1
		wasted = prev.WastedBytes + prev.OutBytes
		retryWall = prev.RetryWallSeconds + prev.WallSeconds
	}
	for attempt := first; ; attempt++ {
		if cerr := r.eng.cancelErr(); cerr != nil {
			return nil, cerr
		}
		a := r.runAttempt(s, attempt, base)
		if a.err == nil {
			m := a.metrics
			m.WallSeconds = a.wall
			m.Attempts = int64(attempt + 1)
			m.RetryWallSeconds = retryWall
			m.WastedBytes = wasted
			m.Reexecutions = reexecs
			r.setCPUSeconds(s.phase, &m, true)
			*s.tm = m
			r.tr.taskSuccess(s.phase, s.task, a.index, s.tm)
			return a, nil
		}
		s.discard(a)
		retryable := retryableErr(a.err)
		if retryable {
			wasted += a.wasted
			retryWall += a.wall
		}
		if !retryable || attempt+1-first >= r.eng.Cfg.MaxAttempts {
			failed := base
			failed.Attempts = int64(attempt + 1)
			failed.RetryWallSeconds = retryWall
			failed.WastedBytes = wasted
			failed.Reexecutions = reexecs
			*s.tm = failed
			r.tr.attemptFailure(s.phase, s.task, attempt, a.err)
			return nil, a.err
		}
		r.tr.attemptRetry(s.phase, s.task, attempt, a.err)
	}
}

// runAttempt executes one attempt through the execution backend: place it,
// open it on its node, run the task code in-process, close it, and — for a
// map attempt — register its output as stored on the node. A backend
// refusal at any of those points surfaces as the same killError a simulated
// node crash raises, so the retry loop re-places the task exactly alike.
func (r *round) runAttempt(s *taskSpec, index int, base TaskMetrics) *taskAttempt {
	start := time.Now()
	a := &taskAttempt{index: index, metrics: base}
	a.inj = r.eng.injectorFor(r.index, s.phase, s.task, index)
	r.tr.attemptStart(s.phase, s.task, index, a.inj)
	kill := func(reason string, err error) error {
		return &killError{reason: fmt.Sprintf("%s: %v", reason, err), phase: s.phase, task: s.task, attempt: index}
	}
	// A first-run map attempt places on the raw hash; everything after the
	// crash barrier places around the round's dead nodes.
	var down []bool
	if s.reexec || s.phase == PhaseReduce {
		down = r.dead
	}
	a.node, a.err = r.eng.placeAttempt(r.index, s.phase, s.task, index, down, r.eng.Cfg.Workers)
	if a.err == nil {
		if err := r.rex.BeginAttempt(s.phase, s.task, index, a.node); err != nil {
			a.err = kill("backend refused attempt", err)
		}
	}
	if a.err == nil {
		a.ran = true
		s.body(a)
		if a.err == nil {
			if err := r.rex.EndAttempt(s.phase, s.task, index, a.node); err != nil {
				a.err = kill("worker lost mid-attempt", err)
			}
		}
		if a.err == nil && s.phase == PhaseMap {
			if err := r.rex.StoreMapOutput(s.task, index, a.node); err != nil {
				a.err = kill("storing map output failed", err)
			}
		}
		if a.err == nil && s.commit != nil {
			s.commit(a)
		}
	}
	a.wall = time.Since(start).Seconds()
	return a
}

// discard undoes an attempt's output, if its body ever ran.
func (s *taskSpec) discard(a *taskAttempt) {
	if a.ran && s.undo != nil {
		s.undo(a)
	}
}
