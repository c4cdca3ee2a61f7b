package mr

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

// faultyWriter injects spill-plane I/O failures through
// Config.SpillWriteWrapper. A script is shared across every run file the
// engine creates: calls counts write calls globally, and the script decides
// per call whether to fail hard (ENOSPC), fail silently (a short write with
// a nil error — the lying-disk case), corrupt the data (one flipped payload
// bit, written in full — the rotting-disk case), or pass through.
type faultScript struct {
	calls    atomic.Int64
	failCall int64 // 1-based write call to fail, 0 = never
	short    bool  // fail as a silent short write instead of ENOSPC
	always   bool  // every write fails (the disk stays full)
	flipCall int64 // 1-based write call to corrupt, 0 = never
}

func (s *faultScript) wrap(w io.Writer) io.Writer { return &faultyWriter{s: s, w: w} }

type faultyWriter struct {
	s *faultScript
	w io.Writer
}

func (f *faultyWriter) Write(p []byte) (int, error) {
	n := f.s.calls.Add(1)
	if f.s.always || (f.s.failCall > 0 && n == f.s.failCall) {
		if f.s.short && len(p) > 0 {
			return len(p) - 1, nil // silent short write: bytes vanish, no error
		}
		return 0, syscall.ENOSPC
	}
	if n == f.s.flipCall && len(p) > 0 {
		// A flush image ends with its last block's payload, so the last
		// byte is covered by that block's CRC (and is no length field).
		p = append([]byte(nil), p...)
		p[len(p)-1] ^= 1
	}
	return f.w.Write(p)
}

// runSpillFault executes the word-count workload at a one-byte spill budget
// (every emitted record flushes, so the wrapper sees plenty of write calls)
// with the given fault script.
func runSpillFault(t *testing.T, script *faultScript) (uint64, RoundMetrics, error) {
	t.Helper()
	tuples, _ := tuplesFromWords(spillWords())
	cfg := Config{Workers: 4, Parallelism: 4,
		SpillBudgetBytes: 1, SpillDir: t.TempDir()}
	if script != nil {
		cfg.SpillWriteWrapper = script.wrap
	}
	eng := New(cfg, dfs.New(false))
	res, err := eng.RunTuples(spillFaultJob(), tuples)
	if err != nil {
		return 0, RoundMetrics{}, err
	}
	return eng.FS.TotalChecksum("out/spillfault/"), res.Metrics, nil
}

func spillFaultJob() *Job {
	return &Job{
		Name: "spillfault",
		MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
			ctx.Emit(fmt.Sprintf("word-%c", 'a'+rune(tp.Dims[0])%26), binary.AppendVarint(nil, 1))
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			var total int64
			for _, v := range vals {
				n, _ := binary.Varint(v)
				total += n
			}
			ctx.EmitKV(key, binary.AppendVarint(nil, total))
		},
	}
}

// TestSpillFaultRecovery is the disk-fault half of the robustness contract:
// a transient spill-plane failure — ENOSPC on one write, or a silent short
// write — kills only the attempt that hit it. The retry re-runs on a
// healthy writer and the job's reduce output is byte-identical to an
// uninjected run.
func TestSpillFaultRecovery(t *testing.T) {
	clean, cleanM, err := runSpillFault(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cleanM.Spills == 0 {
		t.Fatal("budget 1 did not spill; the fault wrapper is not being exercised")
	}
	for _, fault := range []struct {
		name   string
		script *faultScript
	}{
		{"enospc-once", &faultScript{failCall: 3}},
		{"short-write-once", &faultScript{failCall: 3, short: true}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			sum, m, err := runSpillFault(t, fault.script)
			if err != nil {
				t.Fatalf("transient spill fault was not recovered: %v", err)
			}
			if sum != clean {
				t.Errorf("recovered output differs from clean run: %x vs %x", sum, clean)
			}
			if m.Retries <= cleanM.Retries {
				t.Errorf("no retry recorded: %d retries faulted vs %d clean", m.Retries, cleanM.Retries)
			}
		})
	}
}

// TestSpillFaultPersistent pins graceful degradation when the disk stays
// full: every attempt hits ENOSPC, MaxAttempts is exhausted, and the run
// fails with a plain error naming the spill write — no panic, no hang, no
// partial output served as success.
func TestSpillFaultPersistent(t *testing.T) {
	_, _, err := runSpillFault(t, &faultScript{always: true})
	if err == nil {
		t.Fatal("run succeeded with a permanently failing spill plane")
	}
	if !strings.Contains(err.Error(), "spill write") {
		t.Errorf("failure does not name the spill plane: %v", err)
	}
}

// TestSpillCorruptBlockFailsReducePlainly is the recovery path of a corrupt
// spill block: one payload bit flipped on its way to disk is caught by the
// block CRC when a reducer merges the run. Re-reading the same bytes cannot
// help, so the reduce task fails on its first attempt — not after
// MaxAttempts identical re-reads — and the round fails with the plain CRC
// error: no panic, no hang, no retry, no leaked run file or goroutine.
func TestSpillCorruptBlockFailsReducePlainly(t *testing.T) {
	tuples, _ := tuplesFromWords(spillWords())
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			script := &faultScript{flipCall: 3}
			eng := New(Config{Workers: 4, Parallelism: par,
				SpillBudgetBytes: 1, SpillDir: dir, SpillWriteWrapper: script.wrap}, dfs.New(false))
			res, err := eng.RunTuples(spillFaultJob(), tuples)
			if err == nil {
				t.Fatal("round succeeded over a corrupt spill block")
			}
			if !strings.Contains(err.Error(), "crc mismatch") {
				t.Errorf("failure does not name the CRC mismatch: %v", err)
			}
			if retryableErr(err) {
				t.Errorf("a corrupt block is classified retryable: %v", err)
			}
			m := res.Metrics
			if !m.Failed || !strings.Contains(m.FailReason, "failed after 1 attempts") {
				t.Errorf("round metrics: Failed=%v, FailReason=%q", m.Failed, m.FailReason)
			}
			// Every reducer before and after the failing one ran once, and
			// the failing one was not re-run over the same bytes.
			for task, tm := range m.Reducers {
				if tm.Attempts != 1 {
					t.Errorf("reducer %d: Attempts = %d, want 1", task, tm.Attempts)
				}
			}
			if m.Retries != 0 {
				t.Errorf("Retries = %d, want 0", m.Retries)
			}
			if leaked := listAll(t, dir); len(leaked) != 0 {
				t.Errorf("spill directory not removed: %v", leaked)
			}
			assertNoGoroutineGrowth(t, goroutines)
		})
	}
}
