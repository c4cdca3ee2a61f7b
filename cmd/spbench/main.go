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

	"github.com/spcube/spcube/internal/bench"
	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/mr/exec"
)

func main() {
	exec.MaybeWorkerMain() // proc-backend workers: spbench re-executes itself
	os.Exit(cli.Exit("spbench", os.Stderr, run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)))
}

// options are spbench's own flags, beside the engine and spill groups.
type options struct {
	exp, format, validate string
	scale                 float64
}

// declare registers spbench's flag surface on fs.
func declare(fs *flag.FlagSet) (*cli.Flags, *options) {
	f, o := cli.New(fs), &options{}
	f.Engine(20, 2016)
	f.Spill()
	fs.StringVar(&o.exp, "exp", "all", "experiment id: fig4 fig5 fig6 fig7 fig8 balance traffic ablation rounds sketch, or all")
	fs.Float64Var(&o.scale, "scale", 1, "sweep size multiplier (1 = paper scale / 1000)")
	fs.StringVar(&o.format, "format", "table", "output format: table, csv, or chart")
	fs.StringVar(&o.validate, "validate", "", "validate a metrics JSON document and exit (no experiments are run)")
	return f, o
}

// run executes one spbench invocation; it is main minus the process exit,
// so tests can drive the full CLI surface.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	f, o := declare(flag.NewFlagSet("spbench", flag.ContinueOnError))
	s, err := f.Start(ctx, args, stderr)
	if err != nil {
		return err
	}
	defer s.Close()

	if o.validate != "" {
		data, err := os.ReadFile(o.validate)
		if err != nil {
			return err
		}
		if err := bench.ValidateMetricsJSON(data); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: valid metrics document (schema version %d)\n", o.validate, mr.MetricsSchemaVersion)
		return nil
	}

	runner := bench.All
	if o.exp != "all" {
		exp, ok := bench.Experiments[o.exp]
		if !ok {
			_, err := bench.ByID(o.exp, bench.Config{}) // the canonical unknown-experiment error
			return cli.UsageError{Err: err}
		}
		runner = exp
	}

	cfg := bench.Config{Config: s.Config, Scale: o.scale}
	var col bench.Collector
	if s.MetricsOut != "" {
		cfg.Collect = col.Collect
	}
	figs := runner(cfg)
	// An interrupted sweep reports its remaining points as DNF: rendering it
	// or writing its metrics document would pass a truncated run off as a
	// result (and let `make bench-json` overwrite the committed artifact).
	if err := s.Config.Context.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}

	switch o.format {
	case "table":
		err = bench.Render(stdout, figs)
	case "csv":
		err = bench.RenderCSV(stdout, figs)
	case "chart":
		err = bench.RenderCharts(stdout, figs)
	default:
		err = fmt.Errorf("unknown format %q (want table, csv, or chart)", o.format)
	}
	if err != nil {
		return err
	}
	return s.WriteMetrics(func(w io.Writer) error {
		return bench.WriteMetricsDoc(w, bench.NewMetricsDoc(cfg, o.exp, figs, col.Runs))
	})
}
