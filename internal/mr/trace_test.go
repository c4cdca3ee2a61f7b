package mr

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runTraced executes the word-count job under a SliceTracer and returns the
// event stream with the (nondeterministic) Time fields zeroed.
func runTraced(t *testing.T, par int, faults string) []TraceEvent {
	t.Helper()
	words := strings.Fields(strings.Repeat("a b c d e f g h ", 50))
	tuples, _ := tuplesFromWords(words)
	st := &SliceTracer{}
	cfg := Config{Workers: 4, Seed: 7, Parallelism: par, Tracer: st}
	if faults != "" {
		fp, err := ParseFaultPlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fp
	}
	eng := New(cfg, nil)
	counts := make(map[string]int64)
	if _, err := eng.RunTuples(wordCountJob(counts), tuples); err != nil {
		t.Fatal(err)
	}
	for i := range st.Events {
		st.Events[i].Time = time.Time{}
	}
	return st.Events
}

func TestTraceEventStream(t *testing.T) {
	events := runTraced(t, 1, "")
	if len(events) == 0 {
		t.Fatal("no events delivered")
	}
	if events[0].Type != EvRoundStart || events[len(events)-1].Type != EvRoundEnd {
		t.Errorf("stream must open with round-start and close with round-end, got %s ... %s",
			events[0].Type, events[len(events)-1].Type)
	}
	if events[0].Tasks != 4 || events[0].Reducers != 4 {
		t.Errorf("round-start task counts: %+v", events[0])
	}
	var starts, successes, shuffles int
	lastTask := map[string]int{}
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has Seq %d: sequence must be consecutive", i, ev.Seq)
		}
		switch ev.Type {
		case EvTaskStart:
			starts++
			// Within one phase, task events must arrive in task-index order.
			if prev, ok := lastTask[ev.Phase]; ok && ev.Task < prev {
				t.Errorf("phase %s: task %d delivered after task %d", ev.Phase, ev.Task, prev)
			}
			lastTask[ev.Phase] = ev.Task
		case EvTaskSuccess:
			successes++
			if ev.CPUSeconds <= 0 {
				t.Errorf("task-success without CPU charge: %+v", ev)
			}
		case EvShuffle:
			shuffles++
			if ev.Records <= 0 || ev.Bytes <= 0 {
				t.Errorf("shuffle event without volume: %+v", ev)
			}
		case EvRoundStart, EvRoundEnd:
			if ev.Task != -1 {
				t.Errorf("round-level event carries task %d", ev.Task)
			}
		}
	}
	if starts != 8 || successes != 8 { // 4 mappers + 4 reducers, fault-free
		t.Errorf("starts=%d successes=%d, want 8/8", starts, successes)
	}
	if shuffles != 1 {
		t.Errorf("shuffles=%d, want 1", shuffles)
	}
}

func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	for _, faults := range []string{"", "*:map:*:crash", "*:reduce:1:mid-emit", "*:map:*:oom:0:1"} {
		seq := runTraced(t, 1, faults)
		par := runTraced(t, 8, faults)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("faults=%q: event stream differs between parallelism 1 and 8", faults)
		}
	}
}

func TestTraceFaultLifecycle(t *testing.T) {
	events := runTraced(t, 1, "0:map:2:crash:0:1")
	var seen []string
	for _, ev := range events {
		if ev.Phase == "map" && ev.Task == 2 {
			seen = append(seen, ev.Type)
		}
	}
	want := []string{EvTaskStart, EvFaultInjected, EvTaskRetry, EvTaskStart, EvTaskSuccess}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("faulted task lifecycle = %v, want %v", seen, want)
	}
	for _, ev := range events {
		if ev.Type == EvFaultInjected && ev.Fault == "" {
			t.Error("fault-injected event must name the fault kind")
		}
		if ev.Type == EvTaskRetry && ev.Err == "" {
			t.Error("task-retry event must carry the error")
		}
	}
}

func TestTracePermanentFailure(t *testing.T) {
	words := strings.Fields("a b c d")
	tuples, _ := tuplesFromWords(words)
	fp, err := ParseFaultPlan("0:map:0:crash:0:*")
	if err != nil {
		t.Fatal(err)
	}
	st := &SliceTracer{}
	eng := New(Config{Workers: 2, Faults: fp, Tracer: st}, nil)
	counts := make(map[string]int64)
	if _, err := eng.RunTuples(wordCountJob(counts), tuples); err == nil {
		t.Fatal("expected permanent failure")
	}
	var failures int
	for _, ev := range st.Events {
		if ev.Type == EvTaskFailure {
			failures++
		}
	}
	if failures != 1 {
		t.Errorf("task-failure events = %d, want 1", failures)
	}
	last := st.Events[len(st.Events)-1]
	if last.Type != EvRoundEnd || !last.Failed || last.Err == "" {
		t.Errorf("failed round must close with a failed round-end, got %+v", last)
	}
}

func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.TraceEvent(TraceEvent{Seq: 0, Type: EvRoundStart, Task: -1})
	tr.TraceEvent(TraceEvent{Seq: 1, Type: EvTaskStart, Phase: "map"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev TraceEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != EvTaskStart || ev.Phase != "map" {
		t.Errorf("round-tripped event: %+v", ev)
	}
}

// TestNilTracerHooksZeroAlloc asserts the acceptance criterion that disabled
// tracing adds zero allocations to the engine hot path: with Config.Tracer
// unset, tracerFor returns nil and every roundTracer hook the engine calls is
// an allocation-free nil-receiver no-op.
func TestNilTracerHooksZeroAlloc(t *testing.T) {
	eng := New(Config{Workers: 2}, nil)
	var tm TaskMetrics
	var rm RoundMetrics
	var err error = errString("x")
	allocs := testing.AllocsPerRun(200, func() {
		tr := eng.tracerFor(0, "job")
		tr.roundStart(2, 2)
		tr.startPhase(2)
		tr.attemptStart(PhaseMap, 0, 0, nil)
		tr.attemptRetry(PhaseMap, 0, 0, err)
		tr.attemptFailure(PhaseMap, 0, 1, err)
		tr.taskSuccess(PhaseMap, 0, 0, &tm)
		tr.flushPhase()
		tr.shuffle(&rm)
		tr.roundEnd(&rm)
	})
	if allocs != 0 {
		t.Errorf("nil-tracer hook path allocates %.0f times per run, want 0", allocs)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func benchEngineRun(b *testing.B, tracer Tracer) {
	words := strings.Fields(strings.Repeat("a b c d e f g h ", 200))
	tuples, _ := tuplesFromWords(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(Config{Workers: 4, Parallelism: 1, Tracer: tracer}, nil)
		counts := make(map[string]int64)
		if _, err := eng.RunTuples(wordCountJob(counts), tuples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTraceOff(b *testing.B) { benchEngineRun(b, nil) }

func BenchmarkEngineTraceOn(b *testing.B) {
	benchEngineRun(b, &SliceTracer{})
}
