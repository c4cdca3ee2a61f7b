package mr

import (
	"fmt"
	"reflect"
	"strings"
)

// MetricsSchemaVersion identifies the machine-readable metrics document
// layout produced by JobMetrics.MarshalJSON / ExportMetrics. The metrics
// structs below are that document: their json tags are the schema's field
// names, and key order inside an object is not part of the contract.
// Consumers must check the version before interpreting the document; it is
// bumped on any backwards-incompatible change.
//
// Determinism contract of the document: for a fixed input, configuration
// and fault plan, every field is bit-for-bit identical at any
// Config.Parallelism and on any backend except those VolatileKeys names.
// Additionally, the recovery-accounting fields ("retries", "wastedBytes",
// "attempts", "reexecutions"/"mapReexecutions", "fetchFailures",
// "speculativeLaunched"/"Won"/"Killed") are the only deterministic fields
// that differ between a faulted and a fault-free run of the same job.
//
// Version history: v2 added the node-failure and speculation recovery
// counters at every level (task, round, job); v3 added the optional
// per-round "maint" annotation describing incremental-maintenance cycles
// (cycle ordinal, delta-vs-rebuild mode, decision reason, sketch drift,
// batch sizes); v4 added the "spills" counter at every level and
// "spillBytes" at round and job level, and redefined "spillBytes" from an
// estimated external-aggregation volume to the exact encoded bytes the
// spill writer produced (out-of-core shuffle run files included); v5 added
// the spill-pipeline counters at every level: "compressedSpillBytes" (the
// framed, block-compressed bytes physically written — the disk-charged
// size) and "mergePasses" (intermediate fan-in merges), both
// deterministic, plus the volatile overlap counters "spillWriteStallNs",
// "prefetchHits" and "prefetchMisses", which join the wall-clock fields
// outside the determinism contract; v6 added the execution-backend health
// counters "heartbeatMisses", "workerRestarts" and "rpcRetries" at round
// and job level — all volatile (real crash recovery and transport
// flakiness do not replay), always zero under the in-process local
// backend.
const MetricsSchemaVersion = 6

// Counters are the additive counters that exist under one name at task,
// round and job level: a round's are the sum of its tasks', a job's the sum
// of its rounds'. add is the one place they are summed.
type Counters struct {
	// Spills counts spill events: map-side run-file flushes under
	// Config.SpillBudgetBytes, and reduce-side external aggregations of
	// groups that exceeded the task's memory. SpillBytes is the exact
	// encoded size of those runs as the spill writer produced them (real
	// measured I/O in out-of-core mode, not an estimate).
	Spills     int64 `json:"spills"`
	SpillBytes int64 `json:"spillBytes"`
	// CompressedSpillBytes is the framed, block-compressed size of the
	// spill runs as physically written — the bytes the disk actually
	// absorbed, and the unit the cost model charges. Equal to SpillBytes
	// plus frame overhead under the raw codec; smaller under a compressing
	// codec. Deterministic (the codecs are deterministic).
	CompressedSpillBytes int64 `json:"compressedSpillBytes"`
	// MergePasses counts intermediate fan-in merges: a reduce task whose
	// live run count exceeded Config.MergeFanIn merged groups of runs
	// into new on-disk runs before its streaming merge. Deterministic.
	MergePasses int64 `json:"mergePasses"`
	// SpillWriteStallNs is the real time an attempt's foreground spent
	// blocked on its background spill writer — waiting for a free double
	// buffer in spillNow, plus the final join. Volatile, like WallSeconds.
	SpillWriteStallNs int64 `json:"spillWriteStallNs"`
	// PrefetchHits/Misses count merge read-ahead chunks that were already
	// buffered when the merge asked (hits) versus had to be waited for
	// (misses). Wall-clock races decide each one, so both are volatile.
	PrefetchHits   int64 `json:"prefetchHits"`
	PrefetchMisses int64 `json:"prefetchMisses"`
	// RetryWallSeconds is the real time consumed by failed attempts, and
	// WastedBytes the output those attempts produced before being
	// discarded (map: pre-combine emit bytes; reduce: output and side
	// bytes rolled back from the DFS). Recovery accounting only — the
	// determinism contract excludes RetryWallSeconds along with
	// WallSeconds, and WastedBytes is zero in a fault-free run.
	RetryWallSeconds float64 `json:"retryWallSeconds"`
	WastedBytes      int64   `json:"wastedBytes"`
	// FetchFailures, on a reduce task, counts the lost map outputs it
	// could not fetch at the shuffle after a node crash.
	// SpeculativeLaunched, Won and Killed count backup attempts under
	// Config.SpeculativeSlack (Won: the backup's result was kept; Killed:
	// the race's loser was discarded — its output lands in WastedBytes).
	// SpeculativeWallSeconds is the real time consumed by the race's loser
	// and is volatile like WallSeconds; the counters are deterministic.
	FetchFailures          int64   `json:"fetchFailures"`
	SpeculativeLaunched    int64   `json:"speculativeLaunched"`
	SpeculativeWon         int64   `json:"speculativeWon"`
	SpeculativeKilled      int64   `json:"speculativeKilled"`
	SpeculativeWallSeconds float64 `json:"speculativeWallSeconds"`
}

func (c *Counters) add(o *Counters) {
	c.Spills += o.Spills
	c.SpillBytes += o.SpillBytes
	c.CompressedSpillBytes += o.CompressedSpillBytes
	c.MergePasses += o.MergePasses
	c.SpillWriteStallNs += o.SpillWriteStallNs
	c.PrefetchHits += o.PrefetchHits
	c.PrefetchMisses += o.PrefetchMisses
	c.RetryWallSeconds += o.RetryWallSeconds
	c.WastedBytes += o.WastedBytes
	c.FetchFailures += o.FetchFailures
	c.SpeculativeLaunched += o.SpeculativeLaunched
	c.SpeculativeWon += o.SpeculativeWon
	c.SpeculativeKilled += o.SpeculativeKilled
	c.SpeculativeWallSeconds += o.SpeculativeWallSeconds
}

// VolatileKeys names, by JSON key, every field outside the determinism
// contract: real elapsed time, the spill pipeline's overlap counters (races
// between real goroutines decide them) and the execution-backend health
// counters (real crash recovery does not replay). For a fixed input,
// configuration and fault plan every other field is bit-for-bit identical at
// any Config.Parallelism and on any backend. This is the one declaration;
// WithoutVolatile and bench.StripVolatile read it.
var VolatileKeys = []string{
	"wallSeconds", "retryWallSeconds", "speculativeWallSeconds",
	"spillWriteStallNs", "prefetchHits", "prefetchMisses",
	"heartbeatMisses", "workerRestarts", "rpcRetries",
}

// TaskMetrics records the exact work performed by one map or reduce task.
type TaskMetrics struct {
	InRecords  int64 `json:"inRecords"`
	InBytes    int64 `json:"inBytes"`
	OutRecords int64 `json:"outRecords"`
	OutBytes   int64 `json:"outBytes"`
	// PreCombineRecords/Bytes is the map output before the combiner ran
	// (equal to OutRecords/Bytes when the job has no combiner).
	PreCombineRecords int64 `json:"preCombineRecords"`
	PreCombineBytes   int64 `json:"preCombineBytes"`
	// Ops counts algorithm-reported elementary operations.
	Ops int64 `json:"ops"`
	// LargestKeyRecords/Bytes describe the biggest single reduce key seen
	// by the task — the footprint of its largest c-group.
	LargestKeyRecords int64 `json:"largestKeyRecords"`
	LargestKeyBytes   int64 `json:"largestKeyBytes"`
	// SideRecords/Bytes count side-output records (intermediate results
	// passed to a later round rather than written to the primary output).
	SideRecords int64 `json:"sideRecords"`
	SideBytes   int64 `json:"sideBytes"`
	Counters
	// CPUSeconds is the simulated CPU time of the task under the cost
	// model; WallSeconds is the real time the in-process run took.
	CPUSeconds  float64 `json:"cpuSeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	// Attempts is how many times the task was executed (1 with no faults
	// injected; 0 for tasks that never ran, e.g. reducers after an OOM).
	// Reexecutions counts full re-runs of a completed map task whose stored
	// output was lost to a node crash (Hadoop's re-run-completed-maps
	// semantics). Both are recovery accounting, like the Counters' retry,
	// fetch-failure and speculation fields: every other deterministic
	// counter equals the fault-free run's.
	Attempts     int64 `json:"attempts"`
	Reexecutions int64 `json:"reexecutions"`
}

// Totals are the fields a round and a job share: a job's are summed (the
// phase averages weighted) over its rounds by JobMetrics.Totals.
type Totals struct {
	// SimSeconds is the simulated running time: per round, startup + max
	// map + shuffle + max reduce. WallSeconds is the real in-process
	// duration.
	SimSeconds  float64 `json:"simSeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	// ShuffleRecords/Bytes is the post-combine map output transferred to
	// reducers: the paper's "intermediate data size" / "map output".
	ShuffleRecords int64 `json:"shuffleRecords"`
	ShuffleBytes   int64 `json:"shuffleBytes"`
	// MapTimeAvg/ReduceTimeAvg are the simulated phase times (seconds)
	// under the cost model, averaged over the executed tasks only (tasks
	// that never ran — Attempts == 0 — would deflate failed runs).
	MapTimeAvg    float64 `json:"mapTimeAvg"`
	ReduceTimeAvg float64 `json:"reduceTimeAvg"`
	// Retries is the number of task attempts beyond each task's first
	// (failed attempts that fault injection forced to re-execute);
	// MapReexecutions counts completed map tasks re-run after a node crash
	// lost their output. Zero in fault-free runs, like the Counters'
	// recovery fields.
	Retries         int64 `json:"retries"`
	MapReexecutions int64 `json:"mapReexecutions"`
	Counters
	// Execution-backend health counters (schema v6), collected from the
	// round's RoundExecutor at round end. All three are volatile: real
	// transport flakiness and crash recovery do not replay identically.
	// Always zero under the in-process local backend.
	HeartbeatMisses int64 `json:"heartbeatMisses"`
	WorkerRestarts  int64 `json:"workerRestarts"`
	RPCRetries      int64 `json:"rpcRetries"`

	// Failed/FailReason: on a job, the first failed round's.
	Failed     bool   `json:"failed,omitempty"`
	FailReason string `json:"failReason,omitempty"`
}

// RoundMetrics aggregates one MapReduce round.
type RoundMetrics struct {
	Job string `json:"job"`
	Totals

	// OutputRecords/Bytes is the reducers' total output.
	OutputRecords int64 `json:"outputRecords"`
	OutputBytes   int64 `json:"outputBytes"`

	// MappersExecuted/ReducersExecuted count the tasks that actually ran
	// (Attempts > 0). Reducers scheduled after a failed one — e.g. past
	// the first OOM under FailOnReducerOOM — never execute and are
	// excluded from the phase-time averages.
	MappersExecuted  int `json:"mappersExecuted"`
	ReducersExecuted int `json:"reducersExecuted"`

	// Simulated phase maxima and the shuffle's transfer time (seconds).
	MapTimeMax    float64 `json:"mapTimeMax"`
	ShuffleTime   float64 `json:"shuffleTime"`
	ReduceTimeMax float64 `json:"reduceTimeMax"`

	// Maint annotates rounds that belong to an incremental-maintenance
	// cycle (schema v3). Nil for ordinary cube-computation rounds.
	Maint *MaintInfo `json:"maint,omitempty"`

	Mappers  []TaskMetrics `json:"mappers"`
	Reducers []TaskMetrics `json:"reducers"`
}

// MaintInfo describes the maintenance cycle a round was executed for: the
// cycle's ordinal, whether the cycle merged a delta cube or rebuilt from
// scratch, why, and the sketch drift that informed the decision.
type MaintInfo struct {
	// Round is the 1-based maintenance-cycle ordinal (0 = initial build).
	Round int `json:"round"`
	// Mode is "delta" or "rebuild".
	Mode string `json:"mode"`
	// Reason explains the mode choice ("mergeable", "drift", "deletes",
	// "aggregate", "forced", ...).
	Reason string `json:"reason,omitempty"`
	// Drift is the sketch drift of the batch vs. the base sketch in [0,1].
	Drift float64 `json:"drift"`
	// Appended/Deleted count the batch's tuples.
	Appended int `json:"appended"`
	Deleted  int `json:"deleted"`
}

// finalize derives the round's totals from its tasks, once, at round end.
func (r *RoundMetrics) finalize(cost CostModel) {
	for _, tasks := range [][]TaskMetrics{r.Mappers, r.Reducers} {
		for i := range tasks {
			t := &tasks[i]
			// Speculative backups are extra attempts but not retries: the
			// task never failed, the scheduler just raced a copy of it.
			if extra := t.Attempts - 1 - t.SpeculativeLaunched; extra > 0 {
				r.Retries += extra
			}
			r.MapReexecutions += t.Reexecutions // only map tasks re-execute
			r.Counters.add(&t.Counters)
		}
	}
	r.MappersExecuted, r.MapTimeAvg, r.MapTimeMax = phaseTimes(r.Mappers)
	r.ReducersExecuted, r.ReduceTimeAvg, r.ReduceTimeMax = phaseTimes(r.Reducers)
	// Input bytes were transferred to a reducer even when it was killed
	// before running, so the shuffle bottleneck counts every task.
	var maxIn int64
	for i := range r.Reducers {
		maxIn = max(maxIn, r.Reducers[i].InBytes)
	}
	r.ShuffleTime = max(float64(r.ShuffleBytes)/cost.NetBytesPerSec, float64(maxIn)/cost.NodeNetBytesPerSec)
	r.SimSeconds = cost.RoundStartup + r.MapTimeMax + r.ShuffleTime + r.ReduceTimeMax
}

// phaseTimes averages and maximizes the simulated CPU time over the tasks
// that actually ran (Attempts > 0). Tasks that never executed — reducers
// scheduled after the first OOM failure — carry zero CPUSeconds and would
// deflate the averages of failed runs if counted.
func phaseTimes(tasks []TaskMetrics) (executed int, avg, peak float64) {
	var sum float64
	for i := range tasks {
		if tasks[i].Attempts == 0 {
			continue
		}
		executed++
		sum += tasks[i].CPUSeconds
		peak = max(peak, tasks[i].CPUSeconds)
	}
	if executed > 0 {
		avg = sum / float64(executed)
	}
	return executed, avg, peak
}

// ReducerOutputBytes returns the per-reducer output sizes, used to assess
// load balance (the paper's closing experiment in §6.2).
func (r *RoundMetrics) ReducerOutputBytes() []int64 {
	out := make([]int64, len(r.Reducers))
	for i := range r.Reducers {
		out[i] = r.Reducers[i].OutBytes
	}
	return out
}

// JobMetrics aggregates a full multi-round algorithm execution.
type JobMetrics struct {
	Rounds []RoundMetrics
}

// Add appends a round.
func (j *JobMetrics) Add(r RoundMetrics) { j.Rounds = append(j.Rounds, r) }

// Totals sums the job's rounds: every additive field, the phase averages
// weighted by each round's executed tasks, and the first failed round's
// reason.
func (j *JobMetrics) Totals() Totals {
	var t Totals
	var maps, reds int
	for i := range j.Rounds {
		r := &j.Rounds[i]
		t.SimSeconds += r.SimSeconds
		t.WallSeconds += r.WallSeconds
		t.ShuffleRecords += r.ShuffleRecords
		t.ShuffleBytes += r.ShuffleBytes
		t.MapTimeAvg += r.MapTimeAvg * float64(r.MappersExecuted)
		maps += r.MappersExecuted
		t.ReduceTimeAvg += r.ReduceTimeAvg * float64(r.ReducersExecuted)
		reds += r.ReducersExecuted
		t.Retries += r.Retries
		t.MapReexecutions += r.MapReexecutions
		t.Counters.add(&r.Counters)
		t.HeartbeatMisses += r.HeartbeatMisses
		t.WorkerRestarts += r.WorkerRestarts
		t.RPCRetries += r.RPCRetries
		if r.Failed && !t.Failed {
			t.Failed, t.FailReason = true, r.FailReason
		}
	}
	if maps > 0 {
		t.MapTimeAvg /= float64(maps)
	}
	if reds > 0 {
		t.ReduceTimeAvg /= float64(reds)
	}
	return t
}

// WithoutVolatile returns a copy of the job's metrics with every field whose
// JSON key is in VolatileKeys, or in extra, zeroed at round and task level —
// what remains is comparable with reflect.DeepEqual under the determinism
// contract.
func (j *JobMetrics) WithoutVolatile(extra ...string) JobMetrics {
	drop := make(map[string]bool)
	for _, k := range append(extra, VolatileKeys...) {
		drop[k] = true
	}
	out := JobMetrics{Rounds: append([]RoundMetrics(nil), j.Rounds...)}
	for i := range out.Rounds {
		r := &out.Rounds[i]
		r.Mappers = append([]TaskMetrics(nil), r.Mappers...)
		r.Reducers = append([]TaskMetrics(nil), r.Reducers...)
	}
	zeroKeys(reflect.ValueOf(out.Rounds), drop)
	return out
}

// zeroKeys zeroes, in place, the struct fields tagged with a dropped JSON
// key, descending through embedded structs and slices.
func zeroKeys(v reflect.Value, drop map[string]bool) {
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zeroKeys(v.Index(i), drop)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if drop[key] {
				v.Field(i).SetZero()
			} else {
				zeroKeys(v.Field(i), drop)
			}
		}
	}
}

// String renders a compact per-round summary.
func (j *JobMetrics) String() string {
	var b strings.Builder
	for i := range j.Rounds {
		r := &j.Rounds[i]
		fmt.Fprintf(&b, "round %d (%s): shuffle=%d recs/%d B, out=%d recs, sim=%.2fs",
			i, r.Job, r.ShuffleRecords, r.ShuffleBytes, r.OutputRecords, r.SimSeconds)
		if r.Retries > 0 {
			fmt.Fprintf(&b, ", retries=%d (%d wasted B)", r.Retries, r.WastedBytes)
		}
		if r.MapReexecutions > 0 {
			fmt.Fprintf(&b, ", map reexec=%d (%d fetch failures)", r.MapReexecutions, r.FetchFailures)
		}
		if r.SpeculativeLaunched > 0 {
			fmt.Fprintf(&b, ", speculative=%d (won %d, killed %d)",
				r.SpeculativeLaunched, r.SpeculativeWon, r.SpeculativeKilled)
		}
		if r.Failed {
			fmt.Fprintf(&b, " FAILED: %s", r.FailReason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
