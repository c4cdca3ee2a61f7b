// Package cli is the one front door of spcube, spbench and spserve. It
// declares every flag the binaries share exactly once, in three groups a
// binary opts into; turns the parsed values into a validated mr.Config in
// one Resolve step, where every bad value is a usage error raised before
// any input is read; and owns the process-level scaffold around a run: the
// spill temp root and its removal, two-stage SIGINT/SIGTERM handling, the
// -trace file, the -metrics-out write, -pprof, and the proc backend.
//
// Exit codes, through Exit: 0 on success, 2 on usage errors (unknown flags,
// bad flag values, contradictory options), 1 on runtime failures (I/O,
// compute, interrupts).
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cleanup"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/mr/blockcodec"
	"github.com/spcube/spcube/internal/mr/exec"
	"github.com/spcube/spcube/internal/obs"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

// Flags holds the values of the shared flags. A binary creates one over
// its FlagSet, registers the groups it takes (Engine, Spill, Input) next to
// its own flags, and calls Start.
type Flags struct {
	set *flag.FlagSet

	// Engine group.
	Workers, Par, MaxAttempts int
	Seed                      int64
	Faults                    string
	Trace, MetricsOut, Pprof  string

	// Spill + backend group.
	SpillBudget          int64
	SpillDir, SpillCodec string
	MergeFanIn           int
	Backend              string

	// Input group.
	In, Agg, Algo string
	MinSup        int
}

// New returns the shared flags over fs, every value at its default — so
// Resolve validates a group the binary never registered without knowing it.
func New(fs *flag.FlagSet) *Flags {
	return &Flags{set: fs, SpillBudget: -1, SpillCodec: "raw", Backend: "local", Agg: "count", Algo: "sp-cube"}
}

// Engine registers the engine group: the simulated cluster's shape, fault
// injection and recovery, and the observability outputs. k and seed are the
// binary's defaults for -k and -seed.
func (f *Flags) Engine(k int, seed int64) {
	fs := f.set
	fs.IntVar(&f.Workers, "k", k, "simulated cluster size (machines)")
	fs.IntVar(&f.Par, "p", 0, "goroutines executing simulated tasks: 0 = all cores, 1 = sequential (results are identical at any setting)")
	fs.Int64Var(&f.Seed, "seed", seed, "deterministic seed for sampling (and data generation)")
	fs.StringVar(&f.Faults, "faults", "", "fault-injection spec: round:phase:task:kind[:attempt[:count]] or round:node:N:node-crash, comma-separated (e.g. '*:map:*:crash', '*:node:1:node-crash'); results are identical to a fault-free run")
	fs.IntVar(&f.MaxAttempts, "max-attempts", 0, "task attempts before an injected failure becomes permanent (0 = engine default, 4)")
	fs.StringVar(&f.Trace, "trace", "", "write structured engine trace events (JSON lines) to this file")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the run's per-round metrics (versioned JSON) to this file")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /debug/runtime on this address (e.g. localhost:6060)")
}

// Spill registers the out-of-core shuffle and execution-backend group.
func (f *Flags) Spill() {
	fs := f.set
	fs.Int64Var(&f.SpillBudget, "spill-budget", f.SpillBudget, "map-side in-memory emit budget in bytes before sorting and spilling to an on-disk run file: -1 = never spill, 0 = spill every record, N > 0 = spill past N bytes; cube bytes are identical at any setting")
	fs.StringVar(&f.SpillDir, "spill-dir", "", "directory for spill run files (default: the system temp dir, honoring $TMPDIR); a per-run subdirectory is created and removed on exit, interrupts included")
	fs.StringVar(&f.SpillCodec, "spill-codec", f.SpillCodec, "block compression codec for spill run files: raw or lz; cube bytes are identical under any codec")
	fs.IntVar(&f.MergeFanIn, "merge-fan-in", 0, "cap on runs merged at once by a reducer (0 = engine default, 64; minimum 2); excess runs are first merged into intermediate on-disk runs")
	fs.StringVar(&f.Backend, "backend", f.Backend, "execution backend: local (simulated nodes are goroutines) or proc (one worker process per node, re-executing this binary, that acknowledges attempts and is SIGKILLed when its node crashes); results are byte-identical across backends")
}

// Input registers the group that says which cube to compute over which
// relation.
func (f *Flags) Input() {
	fs := f.set
	fs.StringVar(&f.In, "in", "", "input CSV path (default stdin)")
	fs.StringVar(&f.Agg, "agg", f.Agg, "aggregate function: count, sum, min, max, avg, var, stddev, distinct")
	fs.StringVar(&f.Algo, "algo", f.Algo, "algorithm: "+algo.Names())
	fs.IntVar(&f.MinSup, "minsup", 0, "iceberg threshold: only materialize groups with at least this many rows")
}

// UsageError marks an error as the caller's fault — a bad flag value rather
// than a failure while running — which Exit maps to status 2.
type UsageError struct {
	Err error
	// reported is set when the flag package already printed the error.
	reported bool
}

func (u UsageError) Error() string { return u.Err.Error() }
func (u UsageError) Unwrap() error { return u.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return UsageError{Err: fmt.Errorf(format, args...)}
}

// Exit reports a run's error on stderr, prefixed with the binary's name,
// and returns the process exit status.
func Exit(name string, stderr io.Writer, err error) int {
	var ue UsageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if !ue.reported {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
		}
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// Resolve turns the flag values into the engine configuration and the
// aggregate function, validating every shared flag; any failure is a
// UsageError naming the flag.
func (f *Flags) Resolve() (mr.Config, agg.Func, error) {
	bad := func(name string, value any, err error) (mr.Config, agg.Func, error) {
		return mr.Config{}, nil, Usagef("-%s %v: %w", name, value, err)
	}
	// Zero means the engine's default or off; the cluster has at least one
	// machine.
	for _, c := range []struct {
		name       string
		value, min float64
	}{
		{"k", float64(f.Workers), 1},
		{"p", float64(f.Par), 0},
		{"max-attempts", float64(f.MaxAttempts), 0},
		{"merge-fan-in", float64(f.MergeFanIn), 0},
	} {
		if c.value < c.min {
			return bad(c.name, c.value, fmt.Errorf("want at least %v", c.min))
		}
	}
	plan, err := mr.ParseFaultPlan(f.Faults)
	if err != nil {
		return bad("faults", f.Faults, err)
	}
	aggFn, err := agg.ByName(f.Agg)
	if err != nil {
		return bad("agg", f.Agg, err)
	}
	if _, err := algo.ByName(f.Algo); err != nil {
		return bad("algo", f.Algo, err)
	}
	if _, err := blockcodec.ByName(f.SpillCodec); err != nil {
		return bad("spill-codec", f.SpillCodec, err)
	}
	if f.Backend != "" && f.Backend != "local" && f.Backend != "proc" {
		return bad("backend", f.Backend, errors.New("want local or proc"))
	}
	// The flag's surface is -1 never / 0 every record / N bytes; the
	// engine's is 0 disabled / N bytes, and a one-byte budget is exceeded
	// by any emit.
	budget := f.SpillBudget
	switch {
	case budget < -1:
		return bad("spill-budget", budget, errors.New("want -1 (never), 0 (every record) or a positive byte count"))
	case budget == -1:
		budget = 0
	case budget == 0:
		budget = 1
	}
	return mr.Config{
		Workers: f.Workers, Seed: uint64(f.Seed), Parallelism: f.Par,
		Faults: plan, MaxAttempts: f.MaxAttempts,
		SpillBudgetBytes: budget, SpillDir: f.SpillDir,
		SpillCodec: f.SpillCodec, MergeFanIn: f.MergeFanIn,
	}, aggFn, nil
}

// Session is one started invocation: the parsed flags, the validated
// engine configuration with the run's resources attached (Tracer, Executor,
// the CLI-owned SpillDir, and a Context the first SIGINT/SIGTERM or the
// parent passed to Start cancels, stopping in-flight rounds at the next
// attempt boundary), and what Close must release.
type Session struct {
	*Flags
	Config mr.Config
	AggFn  agg.Func
	// TraceW is the open -trace file, nil when the flag is unset; Config's
	// Tracer already writes to it.
	TraceW  io.Writer
	closers []func()
}

// Start parses args, resolves the shared flags and acquires the run's
// resources. routes are extra handlers for the -pprof endpoint. On success
// the caller defers Close.
func (f *Flags) Start(ctx context.Context, args []string, stderr io.Writer, routes ...obs.Route) (*Session, error) {
	f.set.SetOutput(stderr)
	if err := f.set.Parse(args); err != nil {
		return nil, UsageError{Err: err, reported: true}
	}
	cfg, aggFn, err := f.Resolve()
	if err != nil {
		return nil, err
	}
	s := &Session{Flags: f, Config: cfg, AggFn: aggFn}
	if err := s.acquire(ctx, stderr, routes); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Session) acquire(ctx context.Context, stderr io.Writer, routes []obs.Route) error {
	if s.Pprof != "" {
		srv, err := obs.Start(s.Pprof, routes...)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() { srv.Close() })
		fmt.Fprintf(stderr, "%s: profiling endpoint on http://%s/debug/pprof/\n", s.set.Name(), srv.Addr)
	}
	// With spilling enabled, run files live under a CLI-owned temp root so a
	// forced exit can remove them: deferred engine cleanup never executes
	// when a signal kills the process mid-run.
	teardown := func() {}
	if s.Config.SpillBudgetBytes > 0 {
		root, err := os.MkdirTemp(s.SpillDir, s.set.Name()+"-*")
		if err != nil {
			return err
		}
		s.Config.SpillDir = root
		teardown = func() { os.RemoveAll(root) }
		s.closers = append(s.closers, teardown)
	}
	// Two-stage interrupt handling: the first SIGINT/SIGTERM cancels the
	// context — rounds stop at the next attempt boundary, proc-backend
	// workers are reaped, deferred cleanup runs — and a second signal forces
	// the teardown-and-exit path.
	sigCtx, stop := cleanup.NotifyContext(ctx, teardown, os.Exit)
	s.closers = append(s.closers, stop)
	s.Config.Context = sigCtx
	if s.Trace != "" {
		tf, err := os.Create(s.Trace)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() { tf.Close() })
		s.TraceW = tf
		s.Config.Tracer = mr.NewJSONLTracer(tf)
	}
	if s.Backend == "proc" {
		p := exec.NewProc()
		s.closers = append(s.closers, func() { p.Close() })
		s.Config.Executor = p
	}
	return nil
}

// Close releases the session's resources, last acquired first.
func (s *Session) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// OpenInput opens -in, or standard input when the flag is unset.
func (s *Session) OpenInput() (io.ReadCloser, error) {
	if s.In == "" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(s.In)
}

// LoadRelation reads the -in relation.
func (s *Session) LoadRelation() (*relation.Relation, error) {
	in, err := s.OpenInput()
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return relation.ReadCSV(in)
}

// DeltaConfig is the maintainer configuration of this session.
// delta.Config mirrors the engine fields one by one because the benchmark
// harness constructs it by keyed literal.
func (s *Session) DeltaConfig() delta.Config {
	c := s.Config
	return delta.Config{
		Algorithm: s.Algo, Agg: s.AggFn, MinSup: s.MinSup,
		Workers: c.Workers, Parallelism: c.Parallelism, Seed: s.Seed,
		Faults: c.Faults, MaxAttempts: c.MaxAttempts,
		SpillBudgetBytes: c.SpillBudgetBytes, SpillDir: c.SpillDir,
		SpillCodec: c.SpillCodec, MergeFanIn: c.MergeFanIn,
		Tracer: c.Tracer, Context: c.Context,
	}
}

// NextStore turns one applied maintenance round into the snapshot to swap
// in: the round's change list becomes a copy-on-write patch of cur, the
// snapshot the round was computed against. cur is never modified, so on
// error it keeps serving.
func NextStore(cur *serve.Store, maint *delta.Maintainer, rnd *delta.Round) (*serve.Store, error) {
	p := serve.NewPatch()
	for _, ch := range rnd.Changes {
		var err error
		if ch.Delete {
			err = p.Delete(ch.Key)
		} else {
			err = p.Set(ch.Key, ch.Value)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur.ApplyPatch(p, maint.Relation().Dict)
}

// WriteMetrics writes the -metrics-out document through write; it does
// nothing when the flag is unset.
func (s *Session) WriteMetrics(write func(io.Writer) error) error {
	if s.MetricsOut == "" {
		return nil
	}
	return WriteFile(s.MetricsOut, write)
}

// WriteFile creates path, fills it through write and reports the first
// error of the two, Close included.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
