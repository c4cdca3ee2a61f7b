package main

import (
	"fmt"
	"strconv"
)

// workload is one set of inputs the benchmark runs: a batch phase (spcube
// over a generated CSV), a serve phase (spserve over a prefix of the same
// CSV) and a traffic mix against the server.
type workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json carries.
	Why string

	// Dataset/D/P select the internal/data generator (gendata's flags).
	Dataset string
	D       int
	P       float64
	// BatchRows is the size of batch.csv; the first ServeRows of them are
	// serve.csv and the rows after that feed /v1/ingest, so ingested rows
	// follow the served distribution but are unseen by the server.
	BatchRows, ServeRows int
	// MinSup is the iceberg threshold of both phases (0 = full cube).
	// SpillBudget > 0 caps a map task's emit buffer (spcube -spill-budget)
	// and SpillCodec names the run-file codec; both are batch-phase only,
	// spserve has no such flags.
	MinSup      int
	SpillBudget int64
	SpillCodec  string

	// Mix weighs the reader's operations; Zipf > 0 draws query keys
	// zipf(Zipf)-distributed over Population distinct queries, 0 draws them
	// uniformly; Population 0 means every served reference group.
	Mix        opMix
	Zipf       float64
	Population int
	// IngestRows per /v1/ingest batch. With Concurrent false the server
	// gets IngestCycles batches after the query slices, with no readers;
	// with Concurrent true one of the two connections is a writer posting
	// batches back to back for all slices.
	IngestRows, IngestCycles int
	Concurrent               bool
}

// opMix weighs the query operations.
type opMix struct{ Point, Rollup, Slice, TopK int }

// Sizes were chosen on a 2-core box so that one spcube run takes about 3 s
// and spserve is ready in about 3 s: long enough that scheduling noise is a
// small share of the interval, short enough that 5 runs + 3 starts + the
// slices + the ingest cycles fit the per-run budget (see README.md).
var workloads = []workload{
	{
		Name:    "full_uniform",
		Why:     "no skew, output 15x input: reduce/BUC, collect, CSV render, index build and the cache-miss batcher path do the work",
		Dataset: "uniform", D: 4,
		BatchRows: 80000, ServeRows: 58000,
		Mix:        opMix{Point: 9, Rollup: 1},
		IngestRows: 300, IngestCycles: 12,
	},
	{
		Name:    "iceberg_skew_spill",
		Why:     "half the rows are one skewed tuple, iceberg output ~0: CSV load, map-side aggregation, spill+lz and merge are the run; queries hit the cache",
		Dataset: "binomial", D: 6, P: 0.5,
		BatchRows: 560000, ServeRows: 38000,
		MinSup: 10, SpillBudget: 1 << 20, SpillCodec: "lz",
		Mix:        opMix{Point: 9, Rollup: 1},
		Zipf:       1.1,
		Population: 3000,
		IngestRows: 200, IngestCycles: 40,
	},
	{
		Name:    "wiki_serve_ingest",
		Why:     "the paper's heavy-tailed distribution with a writer beside the reader: every swap flushes the cache and the delta job competes for the second core",
		Dataset: "wiki", D: 4,
		BatchRows: 280000, ServeRows: 125000,
		Mix:        opMix{Point: 6, Rollup: 2, Slice: 1, TopK: 1},
		Zipf:       1.1,
		Population: 20000,
		IngestRows: 150,
		Concurrent: true,
	},
}

// cubeFlags are the flags spcube gets beyond the defaults a user gets.
func (w workload) cubeFlags() []string {
	var f []string
	if w.MinSup > 1 {
		f = append(f, "-minsup", strconv.Itoa(w.MinSup))
	}
	if w.SpillBudget > 0 {
		f = append(f, "-spill-budget", strconv.FormatInt(w.SpillBudget, 10), "-spill-codec", w.SpillCodec)
	}
	return f
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of spcube and spserve sees and this benchmark
// can repeat. Every workload reports all of them, with tracing off. Timings
// are at the reference speed (see refFlag). Bounds follow the run-to-run
// spread the A/A check shows on the sizing box (AA.md): 0.10 for the memory
// peaks (1–5 %), 0.25, the most the driver allows, for the timings (2–9 %).
// What a user also sees but the sizing box cannot repeat within a third of
// that — query_qps, query_p99_ms, ingest_visible_ms, serve_peak_rss_mb — is
// measured in the traced run and listed with the per-layer metrics
// (README.md says why).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"cube_e2e_s", "s", lower, 0.25},
	{"cube_cpu_s", "s", lower, 0.25},
	{"cube_peak_rss_mb", "MB", lower, 0.10},
	{"serve_ready_s", "s", lower, 0.25},
	{"serve_ready_rss_mb", "MB", lower, 0.10},
}

// perLayer lists the traced pass's metrics, layer.metric, in the order of
// the table in README.md.
var perLayer = []metricDef{
	{Name: "relation.load_s", Unit: "s", Better: lower},
	{Name: "relation.rows_per_s", Unit: "1/s", Better: higher},
	{Name: "relation.dict_entries", Unit: "count", Better: lower},

	{Name: "sketch.build_s", Unit: "s", Better: lower},
	{Name: "sketch.sample_tuples", Unit: "count", Better: lower},
	{Name: "sketch.bytes", Unit: "B", Better: lower},
	{Name: "sketch.skewed_groups", Unit: "count", Better: lower},

	{Name: "mr.map_task_s", Unit: "s", Better: lower},
	{Name: "mr.precombine_records", Unit: "count", Better: lower},
	{Name: "mr.shuffle_records", Unit: "count", Better: lower},
	{Name: "mr.shuffle_bytes", Unit: "B", Better: lower},
	{Name: "mr.round_wall_s", Unit: "s", Better: lower},

	{Name: "mr.spills", Unit: "count", Better: lower},
	{Name: "mr.spill_bytes", Unit: "B", Better: lower},
	{Name: "mr.spill_disk_bytes", Unit: "B", Better: lower},
	{Name: "mr.spill_stall_ms", Unit: "ms", Better: lower},
	{Name: "mr.merge_passes", Unit: "count", Better: lower},
	{Name: "mr.prefetch_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "mr.retries", Unit: "count", Better: lower},

	{Name: "blockcodec.lz_encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "blockcodec.lz_decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "blockcodec.lz_ratio", Unit: "ratio", Better: lower},

	{Name: "mr.reduce_task_s", Unit: "s", Better: lower},
	{Name: "mr.output_bytes", Unit: "B", Better: lower},
	{Name: "buc.tuples_per_s", Unit: "1/s", Better: higher},
	{Name: "buc.groups_out", Unit: "count", Better: lower},

	{Name: "exec.proc_cube_wall_s", Unit: "s", Better: lower},
	{Name: "exec.proc_overhead_s", Unit: "s", Better: lower},

	{Name: "cube.collect_s", Unit: "s", Better: lower},
	{Name: "cube.groups", Unit: "count", Better: lower},

	{Name: "output.render_s", Unit: "s", Better: lower},
	{Name: "output.bytes", Unit: "B", Better: lower},

	{Name: "delta.new_s", Unit: "s", Better: lower},
	{Name: "delta.apply_ms", Unit: "ms", Better: lower},
	{Name: "delta.mode_delta_share", Unit: "ratio", Better: higher},
	{Name: "delta.drift", Unit: "ratio", Better: lower},

	{Name: "serve.build_s", Unit: "s", Better: lower},
	{Name: "serve.index_groups", Unit: "count", Better: lower},
	{Name: "serve.point_ns", Unit: "ns", Better: lower},
	{Name: "serve.point_batch_ns", Unit: "ns", Better: lower},
	{Name: "serve.patch_ms", Unit: "ms", Better: lower},

	{Name: "serve.query_us", Unit: "us", Better: lower},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.coalesce_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.probes_per_query", Unit: "ratio", Better: lower},
	{Name: "serve.swap_us", Unit: "us", Better: lower},

	{Name: "serve.handler_us", Unit: "us", Better: lower},
	{Name: "serve.resp_bytes", Unit: "B", Better: lower},

	{Name: "go.alloc_mb", Unit: "MB", Better: lower},
	{Name: "go.mallocs_per_tuple", Unit: "count", Better: lower},
	{Name: "go.gc_cycles", Unit: "count", Better: lower},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: lower},

	{Name: "query_qps", Unit: "1/s", Better: higher},
	{Name: "query_p99_ms", Unit: "ms", Better: lower},
	{Name: "ingest_visible_ms", Unit: "ms", Better: lower},
	{Name: "serve_peak_rss_mb", Unit: "MB", Better: lower},

	{Name: "cli.cube_wall_med_s", Unit: "s", Better: lower},
	{Name: "cli.cube_wall_max_s", Unit: "s", Better: lower},
	{Name: "harness.query_p50_ms", Unit: "ms", Better: lower},
	{Name: "harness.query_p90_ms", Unit: "ms", Better: lower},
	{Name: "harness.query_samples", Unit: "count", Better: higher},
	{Name: "harness.ingest_p90_ms", Unit: "ms", Better: lower},
	{Name: "harness.calib_ms", Unit: "ms", Better: lower},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "harness.build_s", Unit: "s", Better: lower},
}

// scale sets how much of each workload one run executes. The full scale is
// what BENCHMARK.json's command runs; the traced scale repeats the timed
// pipeline fewer times (its end-to-end figures only feed the cli.* and
// harness.* spread metrics) to leave time for the in-process pass, but
// measures the traffic in full; the smoke scale is the unit test's.
type scale struct {
	RowDiv       int     // divide BatchRows and ServeRows
	SetupReps    int     // set-up repetitions (median reported)
	CubeReps     int     // back-to-back spcube runs (min reported)
	ServerStarts int     // spserve starts (min reported; the last serves)
	Slices       int     // query slices (a timed run's only verify answers; a traced run's are measured)
	SliceFrac    float64 // slice length as a share of -seconds
	IngestDiv    int     // divide IngestCycles
	TraceQueries int     // in-process queries per path in the traced pass
	TraceCycles  int     // in-process ingest cycles in the traced pass
}

var (
	fullScale   = scale{RowDiv: 1, SetupReps: 2, CubeReps: 5, ServerStarts: 3, Slices: 3, SliceFrac: 1.0 / 24, IngestDiv: 2}
	tracedScale = scale{RowDiv: 1, SetupReps: 1, CubeReps: 3, ServerStarts: 1, Slices: 6, SliceFrac: 1.0 / 18, IngestDiv: 1, TraceQueries: 4000, TraceCycles: 6}
	smokeScale  = scale{RowDiv: 100, SetupReps: 1, CubeReps: 1, ServerStarts: 1, Slices: 1, SliceFrac: 0.5 / 30, IngestDiv: 6, TraceQueries: 200, TraceCycles: 2}
)
