package mr

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// scriptedStep is what the fake task body does on one attempt index.
type scriptedStep struct {
	err    error
	wasted int64 // work lost if the attempt is discarded
}

// TestRunTaskAccounting pins the attempt runner's bookkeeping without
// running an engine round: a scripted fake body stands in for the task
// code, and both modes — first run, and re-execution with carried counters —
// are checked for the recovery counters they leave in the task's metrics
// slot, which attempts were undone, that the winner carries its own output,
// and the exact trace-event sequence.
func TestRunTaskAccounting(t *testing.T) {
	crash := &FaultError{Kind: FaultCrashBeforeEmit, Phase: PhaseMap}
	plain := errors.New("deterministic failure")
	prev := TaskMetrics{
		Attempts: 2, OutBytes: 100, WallSeconds: 0.5,
		Counters: Counters{WastedBytes: 10, RetryWallSeconds: 1.5},
	}
	type want struct {
		err        error
		winner     int // winning attempt index (success only)
		attempts   int64
		wasted     int64
		reexecs    int64
		retryWall  float64 // carried in by a re-execution: exact unless retried
		retried    bool    // retryable failures added their wall time on top
		undone     []int
		events     []string
		failedBase bool // a failed task keeps its base accounting
	}
	cases := []struct {
		name   string
		max    int
		prev   *TaskMetrics
		script map[int]scriptedStep
		want   want
	}{
		{
			name: "first run clean", max: 4,
			want: want{winner: 0, attempts: 1,
				events: []string{"task-start@0", "task-success@0"}},
		},
		{
			name: "first run retries then succeeds", max: 4,
			script: map[int]scriptedStep{0: {err: crash, wasted: 7}, 1: {err: crash, wasted: 5}},
			want: want{winner: 2, attempts: 3, wasted: 12, retried: true, undone: []int{0, 1},
				events: []string{"task-start@0", "task-retry@0", "task-start@1", "task-retry@1", "task-start@2", "task-success@2"}},
		},
		{
			name: "deterministic error fails on the first attempt", max: 4,
			script: map[int]scriptedStep{0: {err: plain, wasted: 7}},
			want: want{err: plain, attempts: 1, undone: []int{0}, failedBase: true,
				events: []string{"task-start@0", "task-failure@0"}},
		},
		{
			name: "budget exhausted", max: 2,
			script: map[int]scriptedStep{0: {err: crash, wasted: 3}, 1: {err: crash, wasted: 4}},
			want: want{err: crash, attempts: 2, wasted: 7, retried: true, undone: []int{0, 1}, failedBase: true,
				events: []string{"task-start@0", "task-retry@0", "task-start@1", "task-failure@1"}},
		},
		{
			name: "re-execution continues the numbering and carries the counters", max: 4, prev: &prev,
			want: want{winner: 2, attempts: 3, wasted: 110, reexecs: 1, retryWall: 2.0,
				events: []string{"task-start@2", "task-success@2"}},
		},
		{
			name: "re-execution gets a fresh budget", max: 2, prev: &prev,
			script: map[int]scriptedStep{2: {err: crash, wasted: 1}, 3: {err: crash, wasted: 2}},
			want: want{err: crash, attempts: 4, wasted: 113, reexecs: 1, retryWall: 2.0, retried: true, undone: []int{2, 3},
				events: []string{"task-start@2", "task-retry@2", "task-start@3", "task-failure@3"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tracer := &SliceTracer{}
			eng := New(Config{Workers: 1, MaxAttempts: tc.max, Tracer: tracer}, nil)
			r := &round{eng: eng, job: &Job{Name: "runner"}, rex: localRound{}, tr: eng.tracerFor(0, "runner")}
			r.tr.startPhase(1)

			base := TaskMetrics{InRecords: 42} // stands for a reducer's pre-scan accounting
			slot := base
			if tc.prev != nil {
				slot = *tc.prev
			}
			var undone []int
			win, err := r.runTask(&taskSpec{
				phase: PhaseMap, task: 0, tm: &slot, reexec: tc.prev != nil,
				body: func(a *taskAttempt) {
					step := tc.script[a.index]
					a.err, a.wasted = step.err, step.wasted
					a.collect = []Pair{{Key: fmt.Sprint(a.index)}}
				},
				undo: func(a *taskAttempt) { undone = append(undone, a.index) },
			})
			r.tr.flushPhase()

			if err != tc.want.err {
				t.Fatalf("err = %v, want %v", err, tc.want.err)
			}
			if err == nil {
				if win.index != tc.want.winner {
					t.Errorf("winning attempt = %d, want %d", win.index, tc.want.winner)
				}
				if got := win.collect[0].Key; got != fmt.Sprint(tc.want.winner) {
					t.Errorf("winner carries attempt %s's output, want its own", got)
				}
				if tc.prev == nil && slot.InRecords != base.InRecords {
					t.Errorf("winner's metrics lost the base accounting: %+v", slot)
				}
			} else if tc.want.failedBase {
				kept := slot
				kept.Attempts, kept.WastedBytes, kept.RetryWallSeconds = 0, 0, 0
				if kept != base {
					t.Errorf("failed task's metrics are not its base plus counters: %+v", slot)
				}
			}
			if slot.Attempts != tc.want.attempts || slot.WastedBytes != tc.want.wasted || slot.Reexecutions != tc.want.reexecs {
				t.Errorf("Attempts/WastedBytes/Reexecutions = %d/%d/%d, want %d/%d/%d",
					slot.Attempts, slot.WastedBytes, slot.Reexecutions, tc.want.attempts, tc.want.wasted, tc.want.reexecs)
			}
			// Wall-clock bookkeeping: failed attempts' time lands in
			// RetryWallSeconds on top of what a re-execution carries in.
			switch {
			case tc.want.retried && slot.RetryWallSeconds <= tc.want.retryWall:
				t.Errorf("RetryWallSeconds = %v, want more than the carried %v", slot.RetryWallSeconds, tc.want.retryWall)
			case !tc.want.retried && slot.RetryWallSeconds != tc.want.retryWall:
				t.Errorf("RetryWallSeconds = %v, want exactly %v", slot.RetryWallSeconds, tc.want.retryWall)
			}
			if !reflect.DeepEqual(undone, tc.want.undone) {
				t.Errorf("undone attempts = %v, want %v", undone, tc.want.undone)
			}
			var events []string
			for _, ev := range tracer.Events {
				events = append(events, fmt.Sprintf("%s@%d", ev.Type, ev.Attempt))
			}
			if !reflect.DeepEqual(events, tc.want.events) {
				t.Errorf("trace events = %v\nwant %v", events, tc.want.events)
			}
		})
	}
}
