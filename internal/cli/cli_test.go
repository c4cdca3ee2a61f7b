package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func newFlags() *Flags {
	f := New(flag.NewFlagSet("sptest", flag.ContinueOnError))
	f.Engine(8, 1)
	f.Spill()
	f.Input()
	return f
}

// TestResolveSpillBudget pins the one mapping from the flag's surface
// (-1 never, 0 every record, N bytes) to the engine's (0 disabled, N bytes).
func TestResolveSpillBudget(t *testing.T) {
	for flagValue, want := range map[int64]int64{-1: 0, 0: 1, 1: 1, 4096: 4096} {
		f := newFlags()
		f.SpillBudget = flagValue
		cfg, _, err := f.Resolve()
		if err != nil || cfg.SpillBudgetBytes != want {
			t.Errorf("-spill-budget %d: engine budget %d, err %v; want %d", flagValue, cfg.SpillBudgetBytes, err, want)
		}
	}
	f := newFlags()
	f.SpillBudget = -2
	var ue UsageError
	if _, _, err := f.Resolve(); !errors.As(err, &ue) {
		t.Errorf("-spill-budget -2: err = %v, want a usage error", err)
	}
}

// TestSessionOwnsSpillRootAndTrace: with spilling on, engines spill under a
// per-run root inside -spill-dir that Close removes; the -trace file is
// opened and wired into the engine configuration; a cancelled parent
// context reaches the engine configuration.
func TestSessionOwnsSpillRootAndTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	s, err := newFlags().Start(ctx, []string{"-spill-budget", "0", "-spill-dir", dir, "-trace", trace}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Config.SpillDir
	if filepath.Dir(root) != dir {
		t.Errorf("spill root %q is not inside -spill-dir %q", root, dir)
	}
	if _, err := os.Stat(root); err != nil {
		t.Errorf("spill root not created: %v", err)
	}
	if s.Config.Tracer == nil || s.TraceW == nil {
		t.Error("-trace did not reach the engine configuration")
	}
	if s.Config.Context.Err() != nil {
		t.Error("context cancelled before the parent was")
	}
	cancel()
	if s.Config.Context.Err() == nil {
		t.Error("cancelling the parent did not cancel the engine context")
	}
	s.Close()
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Errorf("Close left the spill root behind (stat: %v)", err)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("trace file missing: %v", err)
	}
}
