// Command spcube computes the data cube of a CSV file.
//
// The input's header row names the columns; every column except the last is
// a dimension and the last column is the numeric measure. The cube is
// written as CSV (one row per c-group, "*" in aggregated-away dimensions)
// to -o or stdout, and execution statistics go to stderr.
//
// Usage:
//
//	spcube -in sales.csv -agg sum -algo sp-cube -k 8 -o cube.csv
//	gendata -dataset retail -n 100000 | spcube -agg count
//	spcube -in sales.csv -p 1         # sequential task execution, same cube
//
// The -p flag controls how many goroutines execute the simulated map and
// reduce tasks and render the output CSV (0 = all cores). It changes only
// real wall-clock time: the cube and all simulated statistics are identical
// at any parallelism.
//
// The -faults flag injects deterministic task failures into the simulated
// cluster (spec: round:phase:task:kind[:attempt[:count]], comma-separated,
// "*" wildcards; kinds: crash, mid-emit, oom, plus
// round:node:N:node-crash to kill simulated machine N at a round's shuffle
// barrier — its completed map output is lost and recomputed). Failed tasks
// are re-executed up to 4 attempts in all; the cube and every statistic
// except the recovery counters are identical to a fault-free run. A fault
// armed on every attempt (":0:*") is permanent and exits 1:
//
//	spcube -in sales.csv -faults '*:map:*:crash'      # every map task retried once
//	spcube -in sales.csv -faults '*:node:1:node-crash' # lose node 1's map output
//	spcube -in sales.csv -faults '*:map:0:crash:0:*'  # map task 0 never succeeds
//
// Out-of-core shuffle: -spill-budget N caps each map task's in-memory emit
// buffer at N bytes — past the budget the task sorts and flushes its output
// to a compact on-disk run file, and reducers stream a k-way merge over the
// runs, so reduce memory is bounded by the run count rather than the input
// size. -spill-budget 0 spills every record, -1 (the default) never spills;
// the cube is byte-identical at any setting. -spill-dir picks where the
// per-run temp directory is created (default: the system temp dir); it is
// removed on exit even when the run fails:
//
//	spcube -in big.csv -spill-budget 8388608    # spill past 8 MiB per task
//	spcube -in big.csv -spill-budget 0 -spill-dir /mnt/scratch
//
// -spill-codec picks the block compression for run files ("raw" or "lz").
// A reducer merges at most 64 runs at once (Hadoop's io.sort.factor); past
// that, contiguous groups are first merged into intermediate on-disk runs,
// counted as merge passes. The cube is byte-identical under any codec. The
// spill directory honors $TMPDIR when -spill-dir is unset, and an interrupt
// (SIGINT/SIGTERM) removes it before exiting:
//
//	spcube -in big.csv -spill-budget 65536 -spill-codec lz
//	spcube -in big.csv -spill-budget 0   # thousands of runs: merge passes
//
// Execution backends: -backend local (the default) executes the simulated
// cluster's tasks as goroutines inside this process; -backend proc also
// runs one real worker process per simulated node, spawned by
// re-executing this binary. The tasks still run here: a worker only
// acknowledges each attempt over a pipe. A node-crash fault under proc
// SIGKILLs the node's worker, and the next round respawns it. The cube,
// every statistic, the -metrics-out document (wall-clock fields aside)
// and the -trace events (times aside) are identical across backends:
//
//	spcube -in sales.csv -backend proc
//	spcube -in sales.csv -backend proc -faults '*:node:1:node-crash'  # real SIGKILL
//
// Observability: -trace FILE streams the simulated cluster's structured
// lifecycle events as JSON lines, -metrics-out FILE writes the run's full
// per-round metrics as a versioned JSON document, and -pprof ADDR serves
// net/http/pprof and runtime metrics for the process itself:
//
//	spcube -in sales.csv -trace trace.jsonl -metrics-out metrics.json
//	spcube -in big.csv -pprof localhost:6060 &
//
// The shared flags (-k -p -seed -faults ... -spill-* -backend -in -agg -algo
// -minsup) are declared and validated once, in internal/cli, for spcube,
// spbench and spserve alike; a bad value exits 2 before the input is opened,
// a failure while running exits 1.
//
// Incremental maintenance: -delta FILE applies the rows of FILE (same CSV
// shape as the base input) as an append batch AFTER the initial cube is
// built, through the delta-cube maintenance layer — a small cube job over
// the batch merged into the base cube; when the batch deletes under an
// aggregate whose states do not invert (min, max, distinct), one more round
// recomputes the groups the deleted rows touch. -delta-delete FILE deletes
// its rows (they must exist in the base input). The emitted cube is the
// maintained (post-batch) cube and the stats line reports the cycle's mode,
// its reason and how many groups it changed:
//
//	spcube -in sales.csv -delta monday.csv -o cube.csv
//	spcube -in sales.csv -delta-delete returns.csv -agg max
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/mr/exec"
	"github.com/spcube/spcube/internal/relation"
)

func main() {
	exec.MaybeWorkerMain() // proc-backend workers: spcube re-executes itself
	os.Exit(cli.Exit("spcube", os.Stderr, run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)))
}

// options are spcube's own flags, beside the three shared groups.
type options struct {
	out, deltaFile, deltaDeleteFile string
	stats                           bool
}

// declare registers spcube's flag surface on fs.
func declare(fs *flag.FlagSet) (*cli.Flags, *options) {
	f, o := cli.New(fs), &options{}
	f.Engine(8, 1)
	f.Spill()
	f.Input()
	fs.StringVar(&o.out, "o", "", "output CSV path (default stdout)")
	fs.BoolVar(&o.stats, "stats", true, "print execution statistics to stderr")
	fs.StringVar(&o.deltaFile, "delta", "", "CSV of rows to append as an incremental-maintenance batch after the initial build")
	fs.StringVar(&o.deltaDeleteFile, "delta-delete", "", "CSV of rows to delete as part of the maintenance batch (rows must exist in the base input)")
	return f, o
}

// run executes one spcube invocation; it is main minus the process exit, so
// tests can drive the full CLI surface. Every error path returns through it
// so deferred cleanup (output close, trace close, pprof shutdown, spill temp
// removal) always executes before the process exits.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	f, o := declare(flag.NewFlagSet("spcube", flag.ContinueOnError))
	s, err := f.Start(ctx, args, stderr)
	if err != nil {
		return err
	}
	defer s.Close()
	if o.deltaFile != "" || o.deltaDeleteFile != "" {
		return runDelta(s, o, stdout, stderr)
	}
	rel, err := s.LoadRelation()
	if err != nil {
		return err
	}
	eng := mr.New(s.Config, dfs.New(false))
	alg, _ := algo.ByName(s.Algo) // Start validated the name
	spec := cube.Spec{Agg: s.AggFn, MinSup: s.MinSup}
	cr, err := algo.Table[alg].New(s.Seed)(eng, rel, spec)
	writeMetrics := func() error {
		return s.WriteMetrics(func(w io.Writer) error { return mr.ExportMetrics(w, &cr.Metrics) })
	}
	if err != nil {
		err = fmt.Errorf("%s failed: %w", algo.Table[alg].Name, err)
		if cr != nil {
			// The failed run's rounds still go to -metrics-out; -o does not.
			err = errors.Join(err, writeMetrics())
		}
		return err
	}
	c, err := cube.CollectRun(eng, cr.OutputPrefix, rel.D(), spec)
	if err != nil {
		return fmt.Errorf("collecting output: %w", err)
	}
	if err := writeOutput(o.out, stdout, func(w io.Writer) error { return c.WriteCSV(w, rel, s.Agg) }); err != nil {
		return err
	}
	if err := writeMetrics(); err != nil || !o.stats {
		return err
	}

	t := cr.Metrics.Totals()
	fmt.Fprintf(stderr,
		"%s: %d rows -> %d c-groups | %d rounds, %.1f simulated s (%.2fs wall), %d intermediate records (%d B)",
		cr.Algorithm, rel.N(), c.Len(), len(cr.Metrics.Rounds), t.SimSeconds, t.WallSeconds,
		t.ShuffleRecords, t.ShuffleBytes)
	if cr.SketchBytes > 0 {
		fmt.Fprintf(stderr, " | sketch %d B, %d skewed groups", cr.SketchBytes, cr.SkewedGroups)
	}
	if t.Spills > 0 {
		fmt.Fprintf(stderr, " | %d spills (%d B, %d B on disk)", t.Spills, t.SpillBytes, t.CompressedSpillBytes)
		if t.MergePasses > 0 {
			fmt.Fprintf(stderr, ", %d merge passes", t.MergePasses)
		}
	}
	if t.Retries > 0 {
		fmt.Fprintf(stderr, " | %d task retries (%d B wasted, %.2fs retry wall)",
			t.Retries, t.WastedBytes, t.RetryWallSeconds)
	}
	if t.MapReexecutions > 0 {
		fmt.Fprintf(stderr, " | %d map re-executions (%d fetch failures)",
			t.MapReexecutions, t.FetchFailures)
	}
	fmt.Fprintln(stderr)
	return nil
}

// writeOutput renders the cube to -o, or to stdout when the flag is unset.
func writeOutput(path string, stdout io.Writer, render func(io.Writer) error) error {
	if path == "" {
		return render(stdout)
	}
	return cli.WriteFile(path, render)
}

// runDelta is the incremental-maintenance batch mode: build the base cube
// through the delta maintainer (cycle 0), apply the -delta / -delta-delete
// rows as one maintenance batch, and emit the maintained cube.
func runDelta(s *cli.Session, o *options, stdout, stderr io.Writer) error {
	if s.In == "" {
		return cli.Usagef("-delta mode needs -in (the base relation cannot come from stdin alongside the batch)")
	}
	if s.Backend == "proc" {
		// Maintenance jobs are small and frequent — per-job worker-process
		// spawn costs dwarf the work (see delta.Config.Context).
		fmt.Fprintln(stderr, "spcube: -backend proc is ignored in delta mode; maintenance engines run the local backend")
	}
	rel, err := s.LoadRelation()
	if err != nil {
		return fmt.Errorf("%s: %w", s.In, err)
	}
	maint, err := delta.New(rel, s.DeltaConfig())
	if err != nil {
		return err
	}
	appends, err := readDeltaRows(o.deltaFile, rel.Schema)
	if err != nil {
		return err
	}
	deletes, err := readDeltaRows(o.deltaDeleteFile, rel.Schema)
	if err != nil {
		return err
	}
	rnd, err := maint.ApplyStrings(appends, deletes)
	if err != nil {
		return err
	}

	// Result builds a map of the whole published cube: once, for the CSV
	// and the stats line both.
	res := maint.Result()
	err = writeOutput(o.out, stdout, func(w io.Writer) error {
		return res.WriteCSV(w, maint.Relation(), s.Agg)
	})
	if err != nil {
		return err
	}
	metrics := maint.Metrics()
	if err := s.WriteMetrics(func(w io.Writer) error { return mr.ExportMetrics(w, &metrics) }); err != nil {
		return err
	}
	if o.stats {
		fmt.Fprintf(stderr,
			"%s+delta: %d rows -> %d c-groups | cycle %d %s (%s): +%d/-%d tuples, %d changed groups\n",
			s.Algo, maint.N(), res.Len(), rnd.Round, rnd.Mode, rnd.Reason,
			rnd.Appended, rnd.Deleted, len(rnd.Changes))
	}
	return nil
}

// readDeltaRows reads a maintenance batch file (same CSV shape and header as
// the base input) into string rows; an empty path yields no rows.
func readDeltaRows(path string, schema relation.Schema) ([]delta.Row, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	batch, err := relation.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	have := append(append([]string(nil), batch.Schema.DimNames...), batch.Schema.MeasureName)
	want := append(append([]string(nil), schema.DimNames...), schema.MeasureName)
	if len(have) != len(want) {
		return nil, fmt.Errorf("%s: %d columns, base input has %d", path, len(have), len(want))
	}
	for i := range have {
		if have[i] != want[i] {
			return nil, fmt.Errorf("%s: column %d is %q, base input has %q", path, i, have[i], want[i])
		}
	}
	rows := make([]delta.Row, batch.N())
	for i, t := range batch.Tuples {
		dims := make([]string, len(t.Dims))
		for j, v := range t.Dims {
			dims[j] = batch.DimString(j, v)
		}
		rows[i] = delta.Row{Dims: dims, Measure: t.Measure}
	}
	return rows, nil
}
