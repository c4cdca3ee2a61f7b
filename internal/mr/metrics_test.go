package mr_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// TestPhaseAveragesExcludeUnexecutedTasks is the regression test for the
// averaging bug: MapTimeAvg/ReduceTimeAvg used to divide by the total task
// count, so reducers that never ran — those scheduled after the first OOM
// under FailOnReducerOOM, which keep Attempts == 0 — deflated the averages
// of failed rounds. The averages must cover executed tasks only.
func TestPhaseAveragesExcludeUnexecutedTasks(t *testing.T) {
	// Route keys explicitly over three reducers: reducer 0 gets a small
	// (survivable) input, reducer 1 a large one that trips the OOM check,
	// reducer 2 nothing. With FailOnReducerOOM the prescan kills the round
	// at reducer 1, so only reducer 0 executes; reducers 1 and 2 keep
	// Attempts == 0.
	var tuples []relation.Tuple
	for i := 0; i < 110; i++ {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{int32(i)}, Measure: 1})
	}
	job := &mr.Job{
		Name: "oom-avg",
		MapTuple: func(ctx *mr.MapCtx, tu relation.Tuple) {
			key := "cold"
			if tu.Dims[0] >= 10 {
				key = "hot"
			}
			ctx.Emit(fmt.Sprintf("%s-%d", key, tu.Dims[0]), []byte("v"))
		},
		Reducers: 3,
		Partition: func(key string, r int) int {
			if strings.HasPrefix(key, "cold") {
				return 0
			}
			return 1
		},
		Reduce:           func(*mr.RedCtx, string, [][]byte) {},
		FailOnReducerOOM: true,
		// OOMFactor (48) over the 4000-tuple memory floor, at this
		// inflation, puts the OOM threshold at 40 input records: reducer 0
		// (10 records) survives, reducer 1 (100 records) dies.
		MemInflation: 4800,
	}
	eng := mr.New(mr.Config{Workers: 2}, nil)
	res, err := eng.RunTuples(job, tuples)
	if err == nil {
		t.Fatal("expected OOM failure")
	}
	rm := &res.Metrics
	if !rm.Failed || !strings.Contains(rm.FailReason, "reducer 1") {
		t.Fatalf("round must fail at reducer 1: %+v", rm.FailReason)
	}
	if rm.Reducers[0].Attempts != 1 || rm.Reducers[1].Attempts != 0 || rm.Reducers[2].Attempts != 0 {
		t.Fatalf("attempts = %d/%d/%d, want 1/0/0",
			rm.Reducers[0].Attempts, rm.Reducers[1].Attempts, rm.Reducers[2].Attempts)
	}
	if rm.ReducersExecuted != 1 {
		t.Errorf("ReducersExecuted = %d, want 1", rm.ReducersExecuted)
	}
	if rm.MappersExecuted != 2 {
		t.Errorf("MappersExecuted = %d, want 2", rm.MappersExecuted)
	}
	// The average must equal the executed reducer's CPU time exactly, not
	// be diluted over the two reducers that never ran.
	if got, want := rm.ReduceTimeAvg, rm.Reducers[0].CPUSeconds; got != want {
		t.Errorf("ReduceTimeAvg = %v, want the executed reducer's %v", got, want)
	}
	if rm.ReduceTimeAvg <= 0 {
		t.Error("executed reducer must charge CPU time")
	}

	// Job-level averaging must weight rounds by executed tasks, so a
	// failed round with one executed reducer does not drag the job average
	// toward zero.
	var jm mr.JobMetrics
	jm.Add(res.Metrics)
	tot := jm.Totals()
	if got, want := tot.ReduceTimeAvg, rm.Reducers[0].CPUSeconds; got != want {
		t.Errorf("job ReduceTimeAvg = %v, want %v", got, want)
	}
	if got, want := tot.MapTimeAvg, rm.MapTimeAvg; got != want {
		t.Errorf("job MapTimeAvg = %v, want %v", got, want)
	}
}

// TestJobTotalsAreSumsOfRounds checks Totals generically, on the decoded
// document of a real spilled and faulted sp-cube run: every numeric job-level
// key equals the sum of the same key over rounds[], the two phase averages by
// executed-task weight. A field added to Totals but not to JobMetrics.Totals
// stays zero at job level and fails here.
func TestJobTotalsAreSumsOfRounds(t *testing.T) {
	plan, err := mr.ParseFaultPlan("0:map:1:crash,*:node:1:node-crash,1:reduce:0:mid-emit@2")
	if err != nil {
		t.Fatal(err)
	}
	eng := mr.New(mr.Config{Workers: 6, Seed: 42, Faults: plan,
		SpillBudgetBytes: 2048, SpillDir: t.TempDir(), SpillCodec: "lz"}, nil)
	run, err := spcube.Compute(eng, data.GenBinomial(3000, 4, 0.4, 31), cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&run.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	rounds := doc["rounds"].([]any)
	if len(rounds) < 2 {
		t.Fatalf("want a multi-round run, got %d rounds", len(rounds))
	}
	weight := map[string]string{"mapTimeAvg": "mappersExecuted", "reduceTimeAvg": "reducersExecuted"}
	for key, v := range doc {
		total, numeric := v.(float64)
		if !numeric || key == "schemaVersion" {
			continue
		}
		var sum, n float64
		for _, r := range rounds {
			round := r.(map[string]any)
			x, ok := round[key].(float64)
			if !ok {
				t.Fatalf("job-level key %q is not numeric in every round", key)
			}
			if w, avg := weight[key]; avg {
				x *= round[w].(float64)
				n += round[w].(float64)
			}
			sum += x
		}
		if n > 0 {
			sum /= n
		}
		if total != sum {
			t.Errorf("job %s = %v, rounds sum to %v", key, total, sum)
		}
	}
	for _, key := range []string{"spills", "mergePasses", "retries", "mapReexecutions", "fetchFailures", "wastedBytes"} {
		if doc[key].(float64) == 0 {
			t.Errorf("run exercises no %s: the sum check above is vacuous for it", key)
		}
	}
}
