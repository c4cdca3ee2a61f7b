package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	sc      scale
	seed    int64
	seconds int
	trace   bool
	log     io.Writer // progress, for people
}

// result is what one run measured.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"ops_attempted"`
	Failed    int64    `json:"ops_failed"`
	Failures  []string `json:"first_failures,omitempty"`
	// EndToEnd holds the gated metrics, timings at the reference speed (see
	// refFlag); PerLayer holds the traced run's metrics, as measured.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Raw holds every sample the end-to-end metrics were reduced from, as
	// measured, and CalibMS the reference kernel's readings: if those move
	// between two sets of runs, the machine changed, not the benchmark.
	Raw     map[string][]float64 `json:"raw"`
	CalibMS []float64            `json:"calib_ms"`
	WallS   float64              `json:"run_wall_s"`
	// Claim is always null: the benchmark measures, it claims nothing.
	Claim any `json:"claim"`
}

// runWorkload executes one run: set-up, the timed pipeline against the real
// programs with tracing off, and — when cfg.trace is set — the in-process
// traced pass. Every child process is reaped and the work directory removed
// before it returns, on every path.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	began := time.Now()
	res := &result{Workload: cfg.w.Name, Seed: cfg.seed, Trace: cfg.trace}
	tr := newTracer(cfg.w.Name)
	// ref takes one reading of the reference kernel. Readings go into every
	// gap between timed phases, so that their median describes the machine
	// over the same stretch of time the phases ran in.
	ref := func() error {
		v, err := readRef(ctx, refRows/cfg.sc.RowDiv)
		res.CalibMS = append(res.CalibMS, v)
		return err
	}

	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	build, err := buildPrograms(ctx, root, filepath.Join(buildDir, "bin"))
	if err != nil {
		return nil, err
	}
	spcubeBin, spserveBin := filepath.Join(buildDir, "bin", "spcube"), filepath.Join(buildDir, "bin", "spserve")

	// Inputs, outputs, the programs' spill directories and the address file
	// all live under one directory, removed on return.
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, repeated: each repetition regenerates everything from the
	// seed, and the median is reported.
	if err := ref(); err != nil {
		return nil, err
	}
	var in *inputs
	var setup []float64
	for i := 0; i < cfg.sc.SetupReps; i++ {
		runtime.GC() // every repetition starts from the same heap
		id := tr.begin(0, "harness.setup")
		in, err = generate(cfg.w, cfg.sc, cfg.seed, tmp)
		setup = append(setup, tr.end(id).Seconds())
		if err != nil {
			return nil, err
		}
		if err := ref(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintln(cfg.log, in)

	var o ops

	// Batch phase: back-to-back runs of the real program. The first output
	// is verified against the reference; the others must equal it byte for
	// byte.
	out := filepath.Join(tmp, "cube.csv")
	var runs []cubeRun
	for i := 0; i < cfg.sc.CubeReps; i++ {
		id := tr.begin(0, "cli.spcube")
		r, err := runCube(ctx, spcubeBin, tmp, in.batch, out, cfg.w.cubeFlags())
		tr.end(id)
		if !o.check(err) {
			return nil, err
		}
		if i == 0 {
			fmt.Fprintln(cfg.log, r.Stats)
			f, err := os.Open(out)
			if err != nil {
				return nil, err
			}
			_, err = in.verifyCube(f)
			f.Close()
			o.check(err)
		} else if r.SHA256 != runs[0].SHA256 {
			o.check(fmt.Errorf("spcube run %d wrote different bytes than run 1", i+1))
		}
		runs = append(runs, r)
		if err := ref(); err != nil {
			return nil, err
		}
	}
	var walls, cpus, rss []float64
	for _, r := range runs {
		walls, cpus, rss = append(walls, r.Wall), append(cpus, r.CPU), append(rss, r.RSSMB)
	}

	// Serve phase: the last instance started serves the traffic.
	var srv *server
	var ready, readyRSS []float64
	for i := 0; i < cfg.sc.ServerStarts; i++ {
		if srv != nil {
			srv.stop()
		}
		id := tr.begin(0, "cli.spserve.start")
		srv, err = startServer(ctx, spserveBin, tmp, in.serve, cfg.w.MinSup)
		tr.end(id)
		if !o.check(err) {
			return nil, err
		}
		ready = append(ready, srv.Ready.Seconds())
		hwm, err := srv.peakRSSMB()
		if err != nil {
			srv.stop()
			return nil, err
		}
		readyRSS = append(readyRSS, hwm)
		if err := ref(); err != nil {
			srv.stop()
			return nil, err
		}
	}
	defer srv.stop()
	sliceLen := time.Duration(float64(cfg.seconds) * cfg.sc.SliceFrac * float64(time.Second))
	id := tr.begin(0, "http.traffic")
	tf, err := in.drive(ctx, srv.URL, cfg.sc, cfg.seed, sliceLen, &o, ref)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	serveRSS, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	stats, err := fetchStats(srv.URL)
	if err != nil {
		return nil, err
	}
	srv.stop()

	res.Raw = map[string][]float64{
		"setup_s": setup, "cube_wall_s": walls, "cube_cpu_s": cpus, "cube_rss_mb": rss, "serve_ready_s": ready, "ready_rss_mb": readyRSS,
		"slice_qps": tf.sliceQPS, "slice_p99_ms": tf.sliceP99, "ingest_ms": tf.ingest,
	}
	for _, k := range []string{"setup_s", "cube_wall_s", "cube_cpu_s", "cube_rss_mb", "serve_ready_s", "ready_rss_mb", "slice_qps", "slice_p99_ms", "ingest_ms"} {
		fmt.Fprintf(cfg.log, "%-14s %.4g\n", k, res.Raw[k])
	}
	fmt.Fprintf(cfg.log, "%-14s %.4g\n", "calib_ms", res.CalibMS)
	// Timings are reported at the reference speed; memory is as measured.
	speed := refNominalMS / median(res.CalibMS)
	res.EndToEnd = map[string]float64{
		"setup_s":            median(setup) * speed,
		"cube_e2e_s":         minOf(walls) * speed,
		"cube_cpu_s":         minOf(cpus) * speed,
		"cube_peak_rss_mb":   median(rss),
		"serve_ready_s":      minOf(ready) * speed,
		"serve_ready_rss_mb": mean(readyRSS),
	}

	if cfg.trace {
		layer, err := tracedPass(in, cfg.sc, cfg.seed, tmp, runs[0].SHA256, tr, &o)
		if err != nil {
			return nil, err
		}
		// One more CLI run on the worker-process backend: ROADMAP item 3's
		// decision number. Its output must equal the local backend's.
		id := tr.begin(0, "cli.spcube.proc")
		proc, err := runCube(ctx, spcubeBin, tmp, in.batch, out, append(cfg.w.cubeFlags(), "-backend", "proc"))
		tr.end(id)
		if o.check(err) && proc.SHA256 != runs[0].SHA256 {
			o.check(fmt.Errorf("spcube -backend proc wrote different bytes than the local backend"))
		}
		if err := ref(); err != nil {
			return nil, err
		}

		spans := tr.finish()
		dur, self := sumByName(spans)
		// Self times of the traced tree must add up to its total: a layer
		// whose span leaks outside its parent would break the breakdown.
		var selfSum time.Duration
		for name, d := range self {
			switch name {
			case "harness.setup", "cli.spcube", "cli.spserve.start", "http.traffic", "cli.spcube.proc":
			default:
				selfSum += d
			}
		}
		if total := dur["inproc"]; selfSum < total*9/10 || selfSum > total*11/10 {
			o.check(fmt.Errorf("traced self times sum to %v, traced total is %v", selfSum, total))
		} else {
			o.check(nil)
		}
		lookups := float64(stats.CacheHits + stats.FlightsShared + stats.CacheMisses)
		layer["serve.cache_hit_ratio"] = ratio(float64(stats.CacheHits+stats.FlightsShared), lookups)
		layer["serve.coalesce_ratio"] = ratio(float64(stats.Coalesced), float64(stats.BatchedQueries))
		layer["serve.probes_per_query"] = ratio(float64(stats.Probes), lookups)
		layer["exec.proc_cube_wall_s"] = proc.Wall
		layer["exec.proc_overhead_s"] = proc.Wall - median(walls)
		layer["cli.cube_wall_med_s"] = median(walls)
		layer["cli.cube_wall_max_s"] = maxOf(walls)
		layer["query_qps"] = median(tf.sliceQPS)
		layer["query_p99_ms"] = percentile(tf.latencies, 99)
		layer["ingest_visible_ms"] = median(tf.ingest)
		layer["serve_peak_rss_mb"] = serveRSS
		layer["harness.query_p50_ms"] = percentile(tf.latencies, 50)
		layer["harness.query_p90_ms"] = percentile(tf.latencies, 90)
		layer["harness.query_samples"] = float64(len(tf.latencies))
		layer["harness.ingest_p90_ms"] = percentile(tf.ingest, 90)
		layer["harness.calib_ms"] = median(res.CalibMS)
		layer["harness.trace_overhead_pct"] = (dur["inproc.batch"].Seconds() - minOf(walls)) / minOf(walls) * 100
		layer["harness.build_s"] = build.Seconds()
		res.PerLayer = layer

		if err := writeOut(root, cfg.w.Name+".trace.json", map[string][]span{"spans": spans}); err != nil {
			return nil, err
		}
	}

	res.Attempted, res.Failed = o.attempted.Load(), o.failed.Load()
	res.Correct = res.Failed == 0
	res.Failures = o.first
	res.WallS = time.Since(began).Seconds()
	// The summary is a convenience for people; the result line is what counts.
	if err := writeOut(root, cfg.w.Name+".summary.json", res); err != nil {
		fmt.Fprintln(cfg.log, "benchmark: writing the summary:", err)
	}
	return res, nil
}

// writeOut stores v as indented JSON under benchmark/out/.
func writeOut(root, name string, v any) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
