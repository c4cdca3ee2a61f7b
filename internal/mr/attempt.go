package mr

import (
	"fmt"
	"time"

	"github.com/spcube/spcube/internal/dfs"
)

// This file is the engine's one attempt runner. Every execution of task
// code — a map or reduce task's first run, the re-execution of a map task
// whose stored output died with its node, a speculative backup — goes
// through runTask → runAttempt, so placement, the backend's begin/end
// hooks, timeout kills, backup races, the retry budget, the recovery
// counters and the trace events are written once. What differs between
// callers is data on a taskSpec:
//
//	             attempt index, budget      placed around  timeout  backup race  discarding an attempt
//	first run    0.., MaxAttempts           spec.down      yes      yes          spec.undo
//	re-execution continues the lost run's   spec.down      no       no           spec.undo
//	             numbering, fresh budget
//	backup       the original's index + 1,  spec.down      no       —            always undone: the
//	             one shot                                                        original's output stands

// taskSpec describes one task to runTask.
type taskSpec struct {
	phase Phase
	task  int
	// tm is the task's metrics slot. On entry it holds the accounting every
	// attempt starts from and a failed task keeps — zero for a map task, the
	// pre-scan's input accounting for a reduce task — or, when reexec is
	// set, the lost run's metrics. runTask overwrites it on success and on
	// failure and leaves it untouched on cancellation.
	tm *TaskMetrics
	// reexec marks the re-execution of a completed map task whose stored
	// output was lost to a node crash: attempt numbering continues after
	// the lost run's with a fresh MaxAttempts budget (Hadoop restarts the
	// counter for a re-launched map), the lost run's output and wall time
	// move into WastedBytes/RetryWallSeconds, its speculation counters
	// carry over, and neither TaskTimeout nor SpeculativeSlack applies —
	// the reducers are already waiting at the barrier, so a stalled
	// re-execution is kept rather than killed or raced.
	reexec bool
	// down is the set of nodes the task's attempts place around: the
	// backend's failed workers before the crash barrier, those plus the
	// round's dead nodes after it.
	down []bool
	// body runs one placed and opened attempt's task code, filling in the
	// attempt's metrics, wasted bytes, output and error.
	body func(a *taskAttempt)
	// undo drops the output of an attempt whose body ran: map — delete its
	// spill run file (the buckets die with the attempt); reduce — roll its
	// DFS appends back to the attempt's mark.
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
	mout    mapOutput    // map: sorted buckets and run file
	collect []Pair       // reduce: collected side output
	mark    dfs.FileMark // reduce: the output file before the attempt
}

// specOutcome is one speculative race's recovery accounting: the loser's
// discarded output, its wall time, and the counter deltas.
type specOutcome struct {
	launched, won, killed int64
	wasted                int64
	wall                  float64
}

// runTask runs one task to success or permanent failure and returns the
// winning attempt. Failed attempts are undone and — when the failure is
// retryable (injected faults, engine kills, spill I/O; see retryableErr) —
// retried at the next attempt index until the MaxAttempts budget runs out.
// On a first run, a completed attempt that stalled past TaskTimeout is
// killed and retried, and one that stalled past SpeculativeSlack races a
// backup. A canceled context is returned plainly, between attempts.
func (r *round) runTask(s *taskSpec) (*taskAttempt, error) {
	cfg := &r.eng.Cfg
	base := *s.tm
	first := 0
	var reexecs, wasted int64
	var retryWall float64
	var carried specOutcome
	if s.reexec {
		prev := base
		base = TaskMetrics{}
		first = int(prev.Attempts)
		reexecs = prev.Reexecutions + 1
		wasted = prev.WastedBytes + prev.OutBytes
		retryWall = prev.RetryWallSeconds + prev.WallSeconds
		carried = specOutcome{
			launched: prev.SpeculativeLaunched, won: prev.SpeculativeWon,
			killed: prev.SpeculativeKilled, wall: prev.SpeculativeWallSeconds,
		}
	}
	for attempt := first; ; attempt++ {
		if cerr := r.eng.cancelErr(); cerr != nil {
			return nil, cerr
		}
		a := r.runAttempt(s, attempt, base)
		stall := a.inj.simDelay()
		if a.err == nil && !s.reexec {
			a.err = r.eng.timeoutKill(s.phase, s.task, attempt, stall)
		}
		if a.err == nil {
			var raced specOutcome
			if !s.reexec && cfg.SpeculativeSlack > 0 && stall > cfg.SpeculativeSlack {
				a, raced = r.race(s, a, stall, base)
			}
			m := a.metrics
			m.WallSeconds = a.wall
			m.Attempts = int64(attempt+1) + raced.launched
			m.RetryWallSeconds = retryWall
			m.WastedBytes = wasted + raced.wasted
			m.Reexecutions = reexecs
			m.SpeculativeLaunched = carried.launched + raced.launched
			m.SpeculativeWon = carried.won + raced.won
			m.SpeculativeKilled = carried.killed + raced.killed
			m.SpeculativeWallSeconds = carried.wall + raced.wall
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
		if !retryable || attempt+1-first >= cfg.MaxAttempts {
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
	a.node, a.err = r.eng.placeAttempt(r.index, s.phase, s.task, index, s.down, r.eng.Cfg.Workers)
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
			if err := r.rex.StoreMapOutput(s.task, index, a.node, a.metrics.OutRecords, a.metrics.OutBytes); err != nil {
				a.err = kill("storing map output failed", err)
			}
		}
	}
	a.wall = time.Since(start).Seconds()
	return a
}

// discard undoes an attempt's output, if its body ever ran.
func (s *taskSpec) discard(a *taskAttempt) {
	if a.ran {
		s.undo(a)
	}
}

// race runs one backup attempt against a completed-but-stalled original, at
// the next attempt index with its own injector (fault plans can target it;
// a crashed or refused backup loses by definition), and returns the winner —
// the attempt with the lower simulated finish time, ties keeping the
// original — plus the race's recovery accounting. Attempts are
// byte-identical under the re-entrancy contract, so the backup's copy of
// the output is always the one dropped and the original's stands for the
// winner's: the race decides only the reported metrics, attempt index and
// storage node, never an output byte.
func (r *round) race(s *taskSpec, orig *taskAttempt, stall float64, base TaskMetrics) (*taskAttempt, specOutcome) {
	sp := specOutcome{launched: 1}
	r.tr.speculate(s.phase, s.task, orig.index+1)
	b := r.runAttempt(s, orig.index+1, base)
	s.discard(b)
	if b.err == nil && backupWins(b.metrics.CPUSeconds+b.inj.simDelay(), orig.metrics.CPUSeconds+stall) {
		sp.won, sp.killed = 1, 1
		sp.wasted, sp.wall = orig.wasted, orig.wall
		b.mout, b.collect = orig.mout, orig.collect
		return b, sp
	}
	if b.err == nil {
		sp.killed = 1
	}
	sp.wasted, sp.wall = b.wasted, b.wall
	return orig, sp
}
