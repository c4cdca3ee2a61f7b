package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

// faultTestJob is a side-effect-free word count: all results flow through
// the engine (EmitKV, EmitSide, collected output), never through captured
// state, so a faulted run can be compared bit-for-bit to a fault-free one.
func faultTestJob() *Job {
	return &Job{
		Name: "faultwc",
		MapTuple: func(ctx *MapCtx, t relation.Tuple) {
			ctx.Emit(fmt.Sprintf("w%03d", t.Dims[0]), []byte{1})
		},
		Combine: func(key string, vals [][]byte) [][]byte {
			var total int64
			for _, v := range vals {
				total += int64(v[0])
			}
			return [][]byte{binary.AppendVarint(nil, total)}
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			var total int64
			for _, v := range vals {
				n, _ := binary.Varint(v)
				total += n
			}
			ctx.EmitKV(key, binary.AppendVarint(nil, total))
			ctx.EmitSide(key, binary.AppendVarint(nil, total))
		},
	}
}

type faultRun struct {
	metrics RoundMetrics
	output  []Pair
	sum     uint64
	recs    int64
	files   map[string][]byte // every DFS output file's bytes
	err     error
}

// runFaulted executes the fault-test word count on a 4-worker engine with
// the given plan and returns everything a differential comparison needs.
// The DFS runs in store mode so that what a retried reduce commits is
// compared as bytes, not just as counters.
func runFaulted(t *testing.T, plan *FaultPlan, maxAttempts, parallelism int) faultRun {
	t.Helper()
	return runFaultedCfg(t, Config{Workers: 4, Seed: 7, Parallelism: parallelism,
		Faults: plan, MaxAttempts: maxAttempts})
}

// runFaultedCfg is runFaulted with full control over the engine config.
func runFaultedCfg(t *testing.T, cfg Config) faultRun {
	t.Helper()
	words := strings.Fields(strings.Repeat("a b c d e f g a b a ", 50))
	tuples, _ := tuplesFromWords(words)
	fs := dfs.New(false)
	eng := New(cfg, fs)
	res, err := eng.RunTuples(faultTestJob(), tuples)
	files := make(map[string][]byte)
	for _, name := range fs.List("") {
		data, rerr := fs.Read(name)
		if rerr != nil {
			t.Fatal(rerr)
		}
		files[name] = data
	}
	return faultRun{
		metrics: res.Metrics,
		output:  res.Output,
		sum:     fs.TotalChecksum(""),
		recs:    fs.TotalRecords(""),
		files:   files,
		err:     err,
	}
}

func mustPlan(t *testing.T, spec string) *FaultPlan {
	t.Helper()
	plan, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatalf("ParseFaultPlan(%q): %v", spec, err)
	}
	return plan
}

// stripRecovery removes wall-clock and recovery accounting — the only
// fields the determinism contract excludes — so a faulted run's metrics can
// be compared to a fault-free run's.
func stripRecovery(rm RoundMetrics) RoundMetrics {
	out := stripWall(rm)
	out.Retries, out.RetryWallSeconds, out.WastedBytes = 0, 0, 0
	out.MapReexecutions, out.FetchFailures = 0, 0
	for _, tasks := range [][]TaskMetrics{out.Mappers, out.Reducers} {
		for i := range tasks {
			tasks[i].Attempts, tasks[i].RetryWallSeconds, tasks[i].WastedBytes = 0, 0, 0
			tasks[i].Reexecutions, tasks[i].FetchFailures = 0, 0
		}
	}
	return out
}

// stripTimes removes only real-time fields (WallSeconds, RetryWallSeconds),
// keeping the deterministic recovery counters (Attempts, WastedBytes) —
// those must match across parallelism levels too.
func stripTimes(rm RoundMetrics) RoundMetrics {
	out := stripWall(rm)
	out.RetryWallSeconds = 0
	for _, tasks := range [][]TaskMetrics{out.Mappers, out.Reducers} {
		for i := range tasks {
			tasks[i].RetryWallSeconds = 0
		}
	}
	return out
}

func TestFaultKindsMatchFaultFree(t *testing.T) {
	base := runFaulted(t, nil, 0, 1)
	if base.err != nil {
		t.Fatal(base.err)
	}
	cases := []struct {
		name         string
		spec         string
		phase        Phase
		task         int // AnyIndex: skip the per-task attempt check
		wantAttempts int64
		wantRetries  int64
		wantWasted   bool
	}{
		{"crash-map", "0:map:1:crash", PhaseMap, 1, 2, 1, false},
		{"mid-emit-map", "0:map:2:mid-emit@5", PhaseMap, 2, 2, 1, true},
		{"oom-map", "0:map:3:oom", PhaseMap, 3, 2, 1, false},
		{"crash-reduce", "0:reduce:1:crash", PhaseReduce, 1, 2, 1, false},
		{"mid-emit-reduce", "0:reduce:0:mid-emit@2", PhaseReduce, 0, 2, 1, true},
		{"oom-reduce", "0:reduce:3:oom", PhaseReduce, 3, 2, 1, false},
		{"double-fault", "0:map:1:crash:0:2", PhaseMap, 1, 3, 2, false},
		{"last-allowed-attempt", "0:reduce:2:crash:0:3", PhaseReduce, 2, 4, 3, false},
		{"everything-once", "*:map:*:oom,*:reduce:*:crash", PhaseMap, AnyIndex, 0, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFaulted(t, mustPlan(t, tc.spec), 4, 1)
			if got.err != nil {
				t.Fatalf("faulted run failed: %v", got.err)
			}
			if !reflect.DeepEqual(stripRecovery(got.metrics), stripRecovery(base.metrics)) {
				t.Errorf("metrics diverge from fault-free run:\nfaulted: %+v\nclean:   %+v",
					stripRecovery(got.metrics), stripRecovery(base.metrics))
			}
			if got.sum != base.sum || got.recs != base.recs {
				t.Errorf("DFS output diverges: sum %d/%d recs %d/%d",
					got.sum, base.sum, got.recs, base.recs)
			}
			// The checksum is an XOR fold and blind to record order; a
			// retried reduce that committed its records out of order, or
			// twice, shows only in the bytes.
			if !reflect.DeepEqual(got.files, base.files) {
				t.Errorf("DFS files diverge from the fault-free run:\nfaulted: %q\nclean:   %q", got.files, base.files)
			}
			if !reflect.DeepEqual(got.output, base.output) {
				t.Error("collected output diverges from fault-free run")
			}
			if tc.task != AnyIndex {
				tasks := got.metrics.Mappers
				if tc.phase == PhaseReduce {
					tasks = got.metrics.Reducers
				}
				if tasks[tc.task].Attempts != tc.wantAttempts {
					t.Errorf("task %d attempts = %d, want %d",
						tc.task, tasks[tc.task].Attempts, tc.wantAttempts)
				}
				for i := range tasks {
					if i != tc.task && tasks[i].Attempts != 1 {
						t.Errorf("untargeted task %d attempts = %d, want 1", i, tasks[i].Attempts)
					}
				}
			}
			if got.metrics.Retries != tc.wantRetries {
				t.Errorf("round retries = %d, want %d", got.metrics.Retries, tc.wantRetries)
			}
			if tc.wantWasted && got.metrics.WastedBytes == 0 {
				t.Error("expected wasted bytes from discarded partial output")
			}
			if !tc.wantWasted && got.metrics.WastedBytes != 0 {
				t.Errorf("unexpected wasted bytes %d (attempt died before emitting)",
					got.metrics.WastedBytes)
			}
		})
	}
}

func TestFaultedRunMatchesAcrossParallelism(t *testing.T) {
	plan := mustPlan(t, "*:map:1:mid-emit@3,*:reduce:2:crash,*:reduce:0:oom")
	seq := runFaulted(t, plan, 4, 1)
	par := runFaulted(t, plan, 4, 8)
	if seq.err != nil || par.err != nil {
		t.Fatalf("errs: %v / %v", seq.err, par.err)
	}
	if !reflect.DeepEqual(stripTimes(seq.metrics), stripTimes(par.metrics)) {
		t.Errorf("faulted metrics differ across parallelism:\npar=1: %+v\npar=8: %+v",
			stripTimes(seq.metrics), stripTimes(par.metrics))
	}
	if seq.sum != par.sum || seq.recs != par.recs {
		t.Error("faulted DFS output differs across parallelism")
	}
	if !reflect.DeepEqual(seq.output, par.output) {
		t.Error("faulted collected output differs across parallelism")
	}
}

func TestPermanentFaultFailsRoundCleanly(t *testing.T) {
	t.Run("map", func(t *testing.T) {
		got := runFaulted(t, mustPlan(t, "0:map:2:crash:0:*"), 3, 4)
		if got.err == nil {
			t.Fatal("expected permanent map fault to fail the round")
		}
		var fe *FaultError
		if !errors.As(got.err, &fe) {
			t.Fatalf("error %v is not a FaultError", got.err)
		}
		if fe.Kind != FaultCrashBeforeEmit || fe.Phase != PhaseMap || fe.Task != 2 {
			t.Errorf("FaultError = %+v", fe)
		}
		if !got.metrics.Failed || !strings.Contains(got.metrics.FailReason, "map task 2 failed after 3 attempts") {
			t.Errorf("FailReason = %q", got.metrics.FailReason)
		}
		if got.metrics.Mappers[2].Attempts != 3 {
			t.Errorf("failed task attempts = %d, want 3", got.metrics.Mappers[2].Attempts)
		}
	})
	t.Run("reduce", func(t *testing.T) {
		got := runFaulted(t, mustPlan(t, "0:reduce:1:oom:0:*"), 2, 4)
		if got.err == nil {
			t.Fatal("expected permanent reduce fault to fail the round")
		}
		var fe *FaultError
		if !errors.As(got.err, &fe) {
			t.Fatalf("error %v is not a FaultError", got.err)
		}
		if fe.Kind != FaultTransientOOM || fe.Phase != PhaseReduce || fe.Task != 1 {
			t.Errorf("FaultError = %+v", fe)
		}
		if !got.metrics.Failed || !strings.Contains(got.metrics.FailReason, "reduce task 1 failed after 2 attempts") {
			t.Errorf("FailReason = %q", got.metrics.FailReason)
		}
		if got.metrics.Reducers[1].Attempts != 2 {
			t.Errorf("failed task attempts = %d, want 2", got.metrics.Reducers[1].Attempts)
		}
		// The failed reducer's rolled-back output must not be counted.
		if got.metrics.Reducers[1].OutRecords != 0 {
			t.Error("failed reducer's output leaked into metrics")
		}
		// Other reducers still completed and merged their output.
		if got.metrics.OutputRecords == 0 {
			t.Error("surviving reducers' output missing")
		}
	})
}

func TestDeterministicFailuresAreNotRetried(t *testing.T) {
	// A partition range violation is a job bug, not a machine failure: it
	// must abort on the first attempt even with retries available.
	tuples, _ := tuplesFromWords([]string{"a"})
	job := &Job{
		Name:      "bad",
		MapTuple:  func(ctx *MapCtx, tu relation.Tuple) { ctx.Emit("k", nil) },
		Partition: func(string, int) int { return 99 },
		Reduce:    func(*RedCtx, string, [][]byte) {},
	}
	eng := New(Config{Workers: 1, MaxAttempts: 4}, nil)
	res, err := eng.RunTuples(job, tuples)
	if err == nil {
		t.Fatal("expected partition range error")
	}
	if isFaultError(err) {
		t.Error("partition error must not be a FaultError")
	}
	if res.Metrics.Mappers[0].Attempts != 1 {
		t.Errorf("deterministic failure retried: attempts = %d", res.Metrics.Mappers[0].Attempts)
	}

	// Reducer OOM under FailOnReducerOOM likewise fails the round once; the
	// overloaded reducer never runs, so nothing is retried.
	var hot []relation.Tuple
	for i := 0; i < 5000; i++ {
		hot = append(hot, relation.Tuple{Dims: []relation.Value{1}, Measure: 1})
	}
	oomJob := &Job{
		Name:             "oom",
		MapTuple:         func(ctx *MapCtx, tu relation.Tuple) { ctx.Emit("hot", []byte("0123456789abcdef")) },
		Reduce:           func(*RedCtx, string, [][]byte) {},
		FailOnReducerOOM: true,
		MemInflation:     192, // OOM past OOMFactor/192 = a quarter memory-ful of records
	}
	eng = New(Config{Workers: 4, MaxAttempts: 4}, nil)
	res, err = eng.RunTuples(oomJob, hot)
	if err == nil {
		t.Fatal("expected OOM failure")
	}
	if isFaultError(err) {
		t.Error("reducer OOM must not be a FaultError")
	}
	if res.Metrics.Retries != 0 {
		t.Errorf("OOM failure retried: retries = %d", res.Metrics.Retries)
	}
}

func TestFaultRoundSelector(t *testing.T) {
	// The engine counts rounds across jobs; Fault.Round targets that
	// counter, so a multi-round algorithm can fault only its second job.
	run := func(spec string) (first, second RoundMetrics) {
		t.Helper()
		words := strings.Fields(strings.Repeat("a b c ", 30))
		tuples, _ := tuplesFromWords(words)
		eng := New(Config{Workers: 2, Faults: mustPlan(t, spec)}, nil)
		res1, err := eng.RunTuples(faultTestJob(), tuples)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := eng.RunTuples(faultTestJob(), tuples)
		if err != nil {
			t.Fatal(err)
		}
		return res1.Metrics, res2.Metrics
	}
	first, second := run("1:map:0:crash")
	if first.Retries != 0 {
		t.Errorf("round 0 faulted by a round-1 selector: retries = %d", first.Retries)
	}
	if second.Retries != 1 || second.Mappers[0].Attempts != 2 {
		t.Errorf("round 1 not faulted: retries = %d, attempts = %d",
			second.Retries, second.Mappers[0].Attempts)
	}
	first, second = run("*:map:0:crash")
	if first.Retries != 1 || second.Retries != 1 {
		t.Errorf("wildcard round must fault every round: %d / %d", first.Retries, second.Retries)
	}
}

func TestTaskStateFreshPerAttempt(t *testing.T) {
	// Both map and reduce state are consumed incrementally (a counter); a
	// retry reusing a prior attempt's state would shift every subsequent
	// key/value and diverge from the fault-free run.
	statefulJob := func() *Job {
		return &Job{
			Name:      "stateful",
			TaskState: func() any { c := 0; return &c },
			MapTuple: func(ctx *MapCtx, tu relation.Tuple) {
				c := ctx.State().(*int)
				ctx.Emit(fmt.Sprintf("k%03d", *c), nil)
				*c++
			},
			Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
				c := ctx.State().(*int)
				*c++
				ctx.EmitSide(key, binary.AppendVarint(nil, int64(*c)))
			},
		}
	}
	words := strings.Fields("a b c d e f")
	tuples, _ := tuplesFromWords(words)
	run := func(spec string) ([]Pair, uint64) {
		t.Helper()
		fs := dfs.New(false)
		eng := New(Config{Workers: 1, Seed: 3, Faults: mustPlan(t, spec)}, fs)
		res, err := eng.RunTuples(statefulJob(), tuples)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output, fs.TotalChecksum("")
	}
	cleanOut, cleanSum := run("")
	for _, spec := range []string{"0:map:0:mid-emit@3", "0:reduce:0:mid-emit@2", "0:map:0:crash,0:reduce:0:crash"} {
		out, sum := run(spec)
		if !reflect.DeepEqual(out, cleanOut) || sum != cleanSum {
			t.Errorf("fault %q: retried task saw stale TaskState (output diverged)", spec)
		}
	}
}

func TestParseFaultPlanRoundTrip(t *testing.T) {
	specs := []string{
		"0:map:1:crash",
		"*:reduce:*:oom",
		"1:map:2:mid-emit@3:1:2",
		"0:map:2:crash:0:*",
		"2:reduce:0:mid-emit",
		"0:map:0:crash,1:reduce:3:oom:2",
		"*:node:2:node-crash",
		"1:node:*:node-crash,0:map:0:crash",
	}
	for _, spec := range specs {
		plan := mustPlan(t, spec)
		rendered := plan.String()
		reparsed, err := ParseFaultPlan(rendered)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", rendered, spec, err)
		}
		if !reflect.DeepEqual(plan, reparsed) {
			t.Errorf("round trip %q -> %q changed the plan:\n%+v\n%+v", spec, rendered, plan, reparsed)
		}
	}
	if plan, err := ParseFaultPlan("  "); plan != nil || err != nil {
		t.Errorf("blank spec: plan=%v err=%v, want nil/nil", plan, err)
	}
	if plan, err := ParseFaultPlan(" , "); plan != nil || err != nil {
		t.Errorf("empty items: plan=%v err=%v, want nil/nil", plan, err)
	}
	bad := []string{
		"0:map:0",                 // too few fields
		"0:map:0:crash:0:1:9",     // too many fields
		"x:map:0:crash",           // bad round
		"0:nope:0:crash",          // bad phase
		"0:map:y:crash",           // bad task
		"0:map:0:weird",           // bad kind
		"0:map:0:crash@3",         // kind takes no argument
		"0:map:0:mid-emit@0",      // argument must be positive
		"0:map:0:slow",            // no straggler kind
		"0:map:0:slow@10",         // no straggler kind
		"0:map:0:crash:-1",        // bad attempt
		"0:map:0:crash:0:0",       // bad count
		"0:map:0:node-crash",      // node-crash needs the node phase
		"0:node:0:crash",          // the node phase takes only node-crash
		"0:node:0:node-crash:0:1", // node-crash takes no attempt/count
	}
	for _, spec := range bad {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted an invalid spec", spec)
		}
	}
}

func TestFaultErrorMessages(t *testing.T) {
	e := &FaultError{Kind: FaultCrashMidEmit, Phase: PhaseMap, Task: 1, Attempt: 0}
	if got := e.Error(); !strings.Contains(got, "injected mid-emit in map task 1") {
		t.Errorf("Error() = %q", got)
	}
	e = &FaultError{Kind: FaultTransientOOM, Phase: PhaseReduce, Task: 3, Attempt: 2}
	if got := e.Error(); !strings.Contains(got, "transient out of memory in reduce task 3 (attempt 2)") {
		t.Errorf("Error() = %q", got)
	}
}

func TestMetricsStringMentionsRetries(t *testing.T) {
	got := runFaulted(t, mustPlan(t, "0:reduce:0:mid-emit@2"), 0, 1)
	if got.err != nil {
		t.Fatal(got.err)
	}
	var jm JobMetrics
	jm.Add(got.metrics)
	if tot := jm.Totals(); tot.Retries != 1 || tot.WastedBytes == 0 {
		t.Errorf("job aggregation: retries=%d wasted=%d", tot.Retries, tot.WastedBytes)
	}
	if !strings.Contains(jm.String(), "retries=1") {
		t.Errorf("String() should surface retries: %q", jm.String())
	}
}
