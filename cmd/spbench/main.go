// Command spbench regenerates the paper's evaluation figures on the
// simulated cluster. Each experiment prints the same series as the
// corresponding figure of Milo & Altshuler (SIGMOD'16).
//
// Usage:
//
//	spbench -exp fig6                 # one experiment
//	spbench -exp all -format csv      # everything, machine readable
//	spbench -exp fig4 -scale 0.1      # a 10x smaller, faster sweep
//	spbench -exp fig4 -p 1            # sequential task execution, same numbers
//
// The -p flag controls how many goroutines execute the simulated tasks
// (0 = all cores). Every figure is identical at any parallelism; only the
// real time to produce it changes. Likewise -faults injects deterministic
// task failures (see mr.ParseFaultPlan for the spec syntax, including
// round:node:N:node-crash to kill a whole simulated machine) that the
// engine's recovery layer must absorb without changing a single figure;
// -spec-slack and -task-timeout exercise straggler mitigation the same way:
//
//	spbench -exp fig6 -faults '*:map:*:crash'        # same figures, every map task retried
//	spbench -exp fig6 -faults '*:node:1:node-crash'  # same figures, node 1's output recomputed
//	spbench -exp fig6 -faults '*:map:2:slow@20' -spec-slack 0.01
//
// Observability: -metrics-out FILE writes the figures plus every run's full
// per-round metrics as a versioned JSON document (validate one with
// -validate FILE), -trace FILE streams the engines' structured lifecycle
// events as JSON lines, and -pprof ADDR serves net/http/pprof and runtime
// metrics for the benchmarking process itself:
//
//	spbench -exp fig6 -metrics-out BENCH_fig6.json
//	spbench -validate BENCH_fig6.json
//	spbench -exp all -pprof localhost:6060
//
// Execution backends: -backend proc runs every experiment engine against
// real worker processes (one per simulated machine, with heartbeats, RPC
// deadlines and crash recovery) instead of in-process goroutines. Figures
// are identical across backends; comparing wall-clock between -backend
// local and -backend proc measures the process-isolation overhead:
//
//	spbench -exp fig6 -backend proc
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/spcube/spcube/internal/bench"
	"github.com/spcube/spcube/internal/cleanup"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/mr/exec"
	"github.com/spcube/spcube/internal/obs"
)

func main() {
	exec.MaybeWorkerMain() // proc-backend workers: spbench re-executes itself
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one spbench invocation; it is main minus the process exit,
// so tests can drive the full CLI surface.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment id: fig4 fig5 fig6 fig7 fig8 balance traffic ablation rounds sketch, or all")
		workers    = fs.Int("k", 20, "simulated cluster size (machines)")
		par        = fs.Int("p", 0, "goroutines executing simulated tasks: 0 = all cores, 1 = sequential (results are identical at any setting)")
		seed       = fs.Int64("seed", 2016, "deterministic seed for data generation and sampling")
		scale      = fs.Float64("scale", 1, "sweep size multiplier (1 = paper scale / 1000)")
		format     = fs.String("format", "table", "output format: table, csv, or chart")
		faults     = fs.String("faults", "", "fault-injection spec: round:phase:task:kind[:attempt[:count]] or round:node:N:node-crash, comma-separated (figures are identical to a fault-free run)")
		maxAtt     = fs.Int("max-attempts", 0, "task attempts before an injected failure becomes permanent (0 = engine default, 4)")
		specSlack  = fs.Float64("spec-slack", 0, "speculative-execution slack in simulated seconds: race a backup attempt against tasks stalled longer than this (0 = disabled)")
		taskTO     = fs.Float64("task-timeout", 0, "kill and retry task attempts stalled longer than this many simulated seconds (0 = disabled)")
		spillB     = fs.Int64("spill-budget", -1, "map-side in-memory emit budget in bytes before spilling to disk: -1 = never spill, 0 = spill every record, N > 0 = spill past N bytes (cube bytes are identical at any setting; simulated-time figures include the spill I/O cost)")
		spillDir   = fs.String("spill-dir", "", "directory for spill run files (default: the system temp dir, honoring $TMPDIR); removed on exit, interrupts included")
		spillCodec = fs.String("spill-codec", "raw", "block compression codec for spill run files: raw or lz (cube bytes are identical under any codec; simulated-time figures charge the compressed bytes actually written)")
		mergeFanIn = fs.Int("merge-fan-in", 0, "cap on runs merged at once by a reducer (0 = engine default, 64; minimum 2)")
		metricsOut = fs.String("metrics-out", "", "write figures and per-run metrics (versioned JSON) to this file")
		traceFile  = fs.String("trace", "", "write structured engine trace events (JSON lines) to this file")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof and /debug/runtime on this address (e.g. localhost:6060)")
		validate   = fs.String("validate", "", "validate a metrics JSON document and exit (no experiments are run)")
		deltaOut   = fs.String("delta-out", "", "run the delta-maintenance benchmark (1% batch: delta-merge vs full rebuild) and write its JSON document to this file")
		valDelta   = fs.String("validate-delta", "", "validate a delta-benchmark JSON document (including the speedup floor) and exit")
		spillOut   = fs.String("spill-out", "", "run the spill-pipeline benchmark (lz pipeline vs raw baseline) and write its JSON document to this file")
		valSpill   = fs.String("validate-spill", "", "validate a spill-benchmark JSON document (including the speedup and bytes-reduction floors) and exit")
		backend    = fs.String("backend", "local", "execution backend: local (simulated nodes are goroutines) or proc (one real worker process per node); figures are identical across backends")
		workerCmd  = fs.String("worker-cmd", "", "worker argv for -backend proc, space-separated (default: this binary re-executes itself)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *valDelta != "" {
		data, err := os.ReadFile(*valDelta)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := bench.ValidateDeltaJSON(data); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: valid delta-benchmark document (schema version %d, speedup floor %.0fx)\n",
			*valDelta, bench.DeltaSchemaVersion, bench.MinDeltaSpeedup)
		return 0
	}

	if *deltaOut != "" {
		doc, err := bench.RunDeltaBench(bench.DeltaConfig{
			BaseTuples:  int(20000 * *scale),
			Workers:     *workers,
			Seed:        *seed,
			Parallelism: *par,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f, err := os.Create(*deltaOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		werr := bench.WriteDeltaDoc(f, doc)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
		fmt.Fprintf(stdout, "delta-merge %.4fs vs rebuild %.4fs: %.1fx speedup (%d-tuple batch over %d base tuples)\n",
			doc.DeltaSeconds, doc.RebuildSeconds, doc.Speedup, doc.DeltaTuples, doc.BaseTuples)
		return 0
	}

	if *valSpill != "" {
		data, err := os.ReadFile(*valSpill)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := bench.ValidateSpillJSON(data); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: valid spill-benchmark document (schema version %d, floors %.1fx sim / %.1fx bytes)\n",
			*valSpill, bench.SpillSchemaVersion, bench.MinSpillSpeedup, bench.MinSpillBytesReduction)
		return 0
	}

	if *spillOut != "" {
		doc, err := bench.RunSpillBench(bench.SpillConfig{
			Tuples:      int(100000 * *scale),
			Workers:     *workers,
			Seed:        *seed,
			Parallelism: *par,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f, err := os.Create(*spillOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		werr := bench.WriteSpillDoc(f, doc)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
		fmt.Fprintf(stdout, "spill pipeline %.2f sim s vs raw baseline %.2f sim s: %.2fx (%.2fx real wall); %d B spilled vs %d B: %.2fx fewer bytes\n",
			doc.Pipeline.SimSeconds, doc.Baseline.SimSeconds, doc.Speedup, doc.WallSpeedup,
			doc.Pipeline.SpilledBytes, doc.Baseline.SpilledBytes, doc.BytesReduction)
		return 0
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := bench.ValidateMetricsJSON(data); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: valid metrics document (schema version %d)\n", *validate, mr.MetricsSchemaVersion)
		return 0
	}

	// Reject an unknown experiment id before any work (and before -format
	// or fault-spec problems can mask it).
	if _, err := experimentRunner(*exp); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	plan, err := mr.ParseFaultPlan(*faults)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *pprofAddr != "" {
		srv, err := obs.Start(*pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "spbench: profiling endpoint on http://%s/debug/pprof/\n", srv.Addr)
	}

	budget := *spillB
	switch {
	case budget < -1:
		fmt.Fprintf(stderr, "-spill-budget %d: want -1 (never), 0 (every record) or a positive byte count\n", budget)
		return 2
	case budget == -1:
		budget = 0 // engine 0 = spilling disabled
	case budget == 0:
		budget = 1 // any emit exceeds one byte: spill every record
	}

	// With spilling enabled, run files live under a CLI-owned temp root so
	// an interrupt can remove them: deferred engine cleanup never executes
	// when a signal kills the process mid-run.
	dir := *spillDir
	teardown := func() {}
	if budget > 0 {
		root, err := os.MkdirTemp(dir, "spbench-*")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		dir = root
		defer os.RemoveAll(root)
		teardown = func() { os.RemoveAll(root) }
	}

	// Two-stage interrupt handling: the first SIGINT/SIGTERM cancels the
	// sweep's context (reaping proc-backend workers through the deferred
	// Close), a second forces teardown and exit.
	ctx, stopSig := cleanup.NotifyContext(context.Background(), teardown, os.Exit)
	defer stopSig()

	cfg := bench.Config{Workers: *workers, Seed: *seed, Scale: *scale, Parallelism: *par,
		Faults: plan, MaxAttempts: *maxAtt,
		SpeculativeSlack: *specSlack, TaskTimeout: *taskTO,
		SpillBudgetBytes: budget, SpillDir: dir,
		SpillCodec: *spillCodec, MergeFanIn: *mergeFanIn,
		Context: ctx}

	switch *backend {
	case "", "local":
	case "proc":
		var opts exec.Options
		if *workerCmd != "" {
			opts.WorkerCommand = strings.Fields(*workerCmd)
		}
		p := exec.NewProc(opts)
		defer p.Close()
		cfg.Executor = p
	default:
		fmt.Fprintf(stderr, "-backend %s: want local or proc\n", *backend)
		return 2
	}

	var col bench.Collector
	if *metricsOut != "" {
		cfg.Collect = col.Collect
	}
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer tf.Close()
		cfg.Tracer = mr.NewJSONLTracer(tf)
	}

	runner, _ := experimentRunner(*exp)
	figs := runner(cfg)

	switch *format {
	case "table":
		err = bench.Render(stdout, figs)
	case "csv":
		err = bench.RenderCSV(stdout, figs)
	case "chart":
		err = bench.RenderCharts(stdout, figs)
	default:
		err = fmt.Errorf("unknown format %q (want table, csv, or chart)", *format)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *metricsOut != "" {
		doc := bench.NewMetricsDoc(cfg, *exp, figs, col.Runs)
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		werr := bench.WriteMetricsDoc(f, doc)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
	}
	return 0
}

// experimentRunner resolves an experiment id ("all" included) to its
// runner, or an error naming the valid ids.
func experimentRunner(id string) (func(bench.Config) []bench.Figure, error) {
	if id == "all" {
		return bench.All, nil
	}
	if _, ok := bench.Experiments[id]; !ok {
		// ByID produces the canonical unknown-experiment error.
		_, err := bench.ByID(id, bench.Config{})
		return nil, err
	}
	return func(cfg bench.Config) []bench.Figure {
		figs, err := bench.ByID(id, cfg)
		if err != nil {
			panic(err) // unreachable: id validated above
		}
		return figs
	}, nil
}
