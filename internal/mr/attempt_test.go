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
	cpu    float64 // simulated CPU the attempt charges
	wasted int64   // work lost if the attempt is discarded
}

// TestRunTaskAccounting pins the attempt runner's bookkeeping without
// running an engine round: a scripted fake body stands in for the task
// code, and the three modes — first run, re-execution with carried
// counters, backup race — are checked for the recovery counters they leave
// in the task's metrics slot, which attempts were undone, whose output the
// winner carries, and the exact trace-event sequence. Stalls come from slow
// faults in the plan (the fake body never sleeps; the runner only reads the
// fault's simulated delay).
func TestRunTaskAccounting(t *testing.T) {
	crash := &FaultError{Kind: FaultCrashBeforeEmit, Phase: PhaseMap}
	plain := errors.New("deterministic failure")
	prev := TaskMetrics{
		Attempts: 2, OutBytes: 100, WallSeconds: 0.5,
		Counters: Counters{WastedBytes: 10, RetryWallSeconds: 1.5,
			SpeculativeLaunched: 1, SpeculativeWon: 1, SpeculativeKilled: 1, SpeculativeWallSeconds: 0.25},
	}
	type want struct {
		err        error
		winner     int // winning attempt index (success only)
		output     int // attempt index whose output the winner carries
		attempts   int64
		wasted     int64
		reexecs    int64
		spec       [3]int64 // launched, won, killed
		retryWall  float64  // carried in by a re-execution: exact unless retried
		retried    bool     // retryable failures added their wall time on top
		undone     []int
		events     []string
		failedBase bool // a failed task keeps its base accounting
	}
	cases := []struct {
		name    string
		faults  string
		slack   float64
		timeout float64
		max     int
		prev    *TaskMetrics
		script  map[int]scriptedStep
		want    want
	}{
		{
			name: "first run clean", max: 4,
			want: want{winner: 0, output: 0, attempts: 1,
				events: []string{"task-start@0", "task-success@0"}},
		},
		{
			name: "first run retries then succeeds", max: 4,
			script: map[int]scriptedStep{0: {err: crash, wasted: 7}, 1: {err: crash, wasted: 5}},
			want: want{winner: 2, output: 2, attempts: 3, wasted: 12, retried: true, undone: []int{0, 1},
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
			name: "timeout kills a completed attempt", max: 4,
			faults: "0:map:0:slow@5", timeout: 0.003,
			script: map[int]scriptedStep{0: {wasted: 9}},
			want: want{winner: 1, output: 1, attempts: 2, wasted: 9, retried: true, undone: []int{0},
				events: []string{"task-start@0", "fault-injected@0", "task-retry@0", "task-start@1", "task-success@1"}},
		},
		{
			name: "re-execution continues the numbering and carries the counters", max: 4,
			// The slow fault would time out or race a first run; a
			// re-execution is subject to neither.
			faults: "0:map:0:slow@5:2", slack: 0.001, timeout: 0.003, prev: &prev,
			want: want{winner: 2, output: 2, attempts: 3, wasted: 110, reexecs: 1,
				spec: [3]int64{1, 1, 1}, retryWall: 2.0,
				events: []string{"task-start@2", "fault-injected@2", "task-success@2"}},
		},
		{
			name: "re-execution gets a fresh budget", max: 2, prev: &prev,
			script: map[int]scriptedStep{2: {err: crash, wasted: 1}, 3: {err: crash, wasted: 2}},
			want: want{err: crash, attempts: 4, wasted: 113, reexecs: 1, retryWall: 2.0, retried: true, undone: []int{2, 3},
				events: []string{"task-start@2", "task-retry@2", "task-start@3", "task-failure@3"}},
		},
		{
			name: "backup crashes", max: 4, faults: "0:map:0:slow@5", slack: 0.001,
			script: map[int]scriptedStep{0: {wasted: 20}, 1: {err: crash, wasted: 6}},
			want: want{winner: 0, output: 0, attempts: 2, wasted: 6, spec: [3]int64{1, 0, 0}, undone: []int{1},
				events: []string{"task-start@0", "fault-injected@0", "speculate@1", "task-start@1", "task-success@0"}},
		},
		{
			name: "backup wins", max: 4, faults: "0:map:0:slow@5", slack: 0.001,
			script: map[int]scriptedStep{0: {cpu: 1, wasted: 20}, 1: {cpu: 1, wasted: 6}},
			want: want{winner: 1, output: 0, attempts: 2, wasted: 20, spec: [3]int64{1, 1, 1}, undone: []int{1},
				events: []string{"task-start@0", "fault-injected@0", "speculate@1", "task-start@1", "task-success@1"}},
		},
		{
			name: "backup loses", max: 4, faults: "0:map:0:slow@5,0:map:0:slow@9:1", slack: 0.001,
			script: map[int]scriptedStep{0: {cpu: 1, wasted: 20}, 1: {cpu: 1, wasted: 6}},
			want: want{winner: 0, output: 0, attempts: 2, wasted: 6, spec: [3]int64{1, 0, 1}, undone: []int{1},
				events: []string{"task-start@0", "fault-injected@0", "speculate@1", "task-start@1", "fault-injected@1", "task-success@0"}},
		},
		{
			name: "a tie keeps the original", max: 4, faults: "0:map:0:slow@5:0:2", slack: 0.001,
			script: map[int]scriptedStep{0: {cpu: 1, wasted: 20}, 1: {cpu: 1, wasted: 6}},
			want: want{winner: 0, output: 0, attempts: 2, wasted: 6, spec: [3]int64{1, 0, 1}, undone: []int{1},
				events: []string{"task-start@0", "fault-injected@0", "speculate@1", "task-start@1", "fault-injected@1", "task-success@0"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := ParseFaultPlan(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			tracer := &SliceTracer{}
			eng := New(Config{Workers: 1, MaxAttempts: tc.max, Faults: plan,
				SpeculativeSlack: tc.slack, TaskTimeout: tc.timeout, Tracer: tracer}, nil)
			r := &round{eng: eng, rex: localRound{}, tr: eng.tracerFor(0, "runner")}
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
					a.metrics.CPUSeconds += step.cpu
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
				if got := win.collect[0].Key; got != fmt.Sprint(tc.want.output) {
					t.Errorf("winner carries attempt %s's output, want attempt %d's", got, tc.want.output)
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
			wantSpec := tc.want.spec
			if err != nil {
				wantSpec = [3]int64{} // a failed task reports no race
			}
			if got := [3]int64{slot.SpeculativeLaunched, slot.SpeculativeWon, slot.SpeculativeKilled}; got != wantSpec {
				t.Errorf("Speculative launched/won/killed = %v, want %v", got, wantSpec)
			}
			// Wall-clock bookkeeping: failed attempts' time lands in
			// RetryWallSeconds on top of what a re-execution carries in, a
			// race loser's in SpeculativeWallSeconds on top of the carried.
			switch {
			case tc.want.retried && slot.RetryWallSeconds <= tc.want.retryWall:
				t.Errorf("RetryWallSeconds = %v, want more than the carried %v", slot.RetryWallSeconds, tc.want.retryWall)
			case !tc.want.retried && slot.RetryWallSeconds != tc.want.retryWall:
				t.Errorf("RetryWallSeconds = %v, want exactly %v", slot.RetryWallSeconds, tc.want.retryWall)
			}
			if err == nil {
				carried := 0.0
				if tc.prev != nil {
					carried = tc.prev.SpeculativeWallSeconds
				}
				if raced := tc.want.spec[0] > 0 && tc.prev == nil; raced && slot.SpeculativeWallSeconds <= 0 {
					t.Errorf("SpeculativeWallSeconds = %v after a race", slot.SpeculativeWallSeconds)
				} else if !raced && slot.SpeculativeWallSeconds != carried {
					t.Errorf("SpeculativeWallSeconds = %v, want the carried %v", slot.SpeculativeWallSeconds, carried)
				}
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
