// Command benchmark is the repository's performance ruler. For one workload
// it generates inputs from a seed, drives the real cmd/spcube and
// cmd/spserve binaries as a user would (CSV in → cube CSV out; CSV in →
// server ready → HTTP queries → /v1/ingest), verifies every output against
// exact reference counts, and prints six end-to-end metrics. With -trace 1
// it also replays the pipeline in this process with a span around each
// layer's public functions and prints the per-layer metrics instead.
//
//	go run -C benchmark . -workload full_uniform -seed 7 -seconds 30 -trace 0
//	go run -C benchmark . -workload all -trace 1      # everything, for people
//	go run -C benchmark . -aa 10 > benchmark/AA.md    # A/A noise check
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; BENCHMARK.json at the repository
// root names the metrics. See README.md for the rules behind the numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == launchFlag {
		os.Exit(launch(os.Args[2:]))
	}
	if len(os.Args) == 3 && os.Args[1] == refFlag {
		os.Exit(refMain(os.Args[2]))
	}
	var (
		name    = flag.String("workload", "all", "workload to run: full_uniform, iceberg_skew_spill, wiki_serve_ingest, or all")
		seed    = flag.Int64("seed", 2016, "derives every generator and query-stream seed; the programs receive only generated files")
		seconds = flag.Int("seconds", 30, "measurement budget: a query slice is 1/24 of it (1/18 in a traced run), the count-based phases were sized to fill the rest")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: shortened timed run plus the in-process traced pass, per-layer metrics")
		aa      = flag.Int("aa", 0, "run two alternating sets of N timed runs per workload and print the A/A table; exit 1 if any metric disagrees beyond its bound")
		smoke   = flag.Bool("smoke", false, "tiny scale (rows/100, 1 repetition, 1 slice of 0.5 s): checks the plumbing, measures nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}

	// An interrupt cancels the run: child processes are killed and reaped,
	// the work directory is removed by the deferred clean-up, and the
	// harness exits non-zero without printing a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *aa > 0 {
		os.Exit(runAA(ctx, *aa, *seed, *seconds))
	}

	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	sc := fullScale
	switch {
	case *smoke:
		sc = smokeScale
	case *trace == 1:
		sc = tracedScale
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(ctx, runConfig{w: w, sc: sc, seed: *seed, seconds: *seconds, trace: *trace == 1, log: os.Stderr})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if err := printResult(res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// printResult prints the metrics by name with units, then the result line.
func printResult(res *result) error {
	defs, values := endToEnd, res.EndToEnd
	if res.Trace {
		// The shortened timed run's end-to-end figures are context for the
		// per-layer numbers, not the gated values.
		fmt.Printf("# %s seed %d: traced run (end-to-end from a shortened timed run)\n", res.Workload, res.Seed)
		for _, d := range endToEnd {
			fmt.Printf("  %-28s %14.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
		}
		defs, values = perLayer, res.PerLayer
	} else {
		fmt.Printf("# %s seed %d\n", res.Workload, res.Seed)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		fmt.Printf("  %-28s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
		metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d  calib_ms %.1f  run_wall_s %.1f\n", res.Attempted, res.Failed, res.CalibMS, res.WallS)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fmt.Errorf("a metric has no value: %w", err) // NaN: a phase produced no samples
	}
	fmt.Println(string(line))
	return nil
}
