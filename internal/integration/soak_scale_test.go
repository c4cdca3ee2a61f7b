package integration

import (
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	spalgo "github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// leftIn lists what a run left in its spill directory, if it had one: the
// engine removes each run's private subdirectory, so any entry is a leak.
func leftIn(dir string) []string {
	if dir == "" {
		return nil
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	return left
}

// soakRun pushes rel through sp-cube at the given spill budget and returns
// the DFS checksum and record count of the cube output plus the job metrics.
func soakRun(t *testing.T, rel *relation.Relation, budget int64, dir string) (uint64, int64, mr.JobMetrics) {
	t.Helper()
	eng := mr.New(mr.Config{Workers: 8, Seed: 42,
		SpillBudgetBytes: budget, SpillDir: dir}, dfs.New(false))
	run, err := spalgo.Compute(eng, rel, cube.Spec{Agg: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	return eng.FS.TotalChecksum(run.OutputPrefix), eng.FS.TotalRecords(run.OutputPrefix), run.Metrics
}

// TestSoakScale is the out-of-core scale gate (`make soak-scale`): a 10M-row
// uniform relation through sp-cube with an 8 MiB spill budget, inside a
// GOMEMLIMIT-bounded process. It asserts that
//
//   - the job completes and actually spilled (the budget fired),
//   - the Go runtime's peak committed memory stayed within 1.25x GOMEMLIMIT
//     (when a limit is set — `make soak-scale` sets 3GiB),
//   - a subsampled prefix of the same relation produces byte-identical cube
//     output spilled vs. fully in memory (the full 10M in-memory twin would
//     defeat the bounded-RSS point), and
//   - no run files are left behind.
//
// Gated behind SPCUBE_SOAK_SCALE=1 so the regular test suite stays fast;
// SPCUBE_SOAK_SCALE_ROWS overrides the row count.
func TestSoakScale(t *testing.T) {
	if os.Getenv("SPCUBE_SOAK_SCALE") != "1" {
		t.Skip("set SPCUBE_SOAK_SCALE=1 (or run `make soak-scale`) to run the scale soak")
	}
	rows := 10_000_000
	if s := os.Getenv("SPCUBE_SOAK_SCALE_ROWS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SPCUBE_SOAK_SCALE_ROWS %q: %v", s, err)
		}
		rows = n
	}
	rel := data.Uniform(rows, 3, 64, 97)

	// Subsampled differential leg: a prefix small enough to hold in memory,
	// at a budget small enough to guarantee spilling, must match its
	// in-memory twin byte for byte.
	subN := rows / 50
	if subN > 200_000 {
		subN = 200_000
	}
	sub := &relation.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:subN], Dict: rel.Dict}
	memSum, memRecs, memM := soakRun(t, sub, 0, "")
	if memM.Totals().Spills != 0 {
		t.Fatalf("in-memory twin spilled %d times", memM.Totals().Spills)
	}
	subDir := t.TempDir()
	subSum, subRecs, subM := soakRun(t, sub, 1<<10, subDir)
	if subM.Totals().Spills == 0 {
		t.Fatal("subsampled spill leg: budget did not fire")
	}
	if subSum != memSum || subRecs != memRecs {
		t.Fatalf("subsampled spill output %x/%d differs from in-memory %x/%d",
			subSum, subRecs, memSum, memRecs)
	}
	if leaked := leftIn(subDir); len(leaked) != 0 {
		t.Fatalf("subsampled leg leaked run files: %v", leaked)
	}

	// Full-scale leg under a memory watchdog: sample the runtime's total
	// committed bytes while the job runs and keep the peak.
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64(); v > peak.Load() {
				peak.Store(v)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
	}()

	dir := t.TempDir()
	start := time.Now()
	sum, recs, m := soakRun(t, rel, 8<<20, dir)
	elapsed := time.Since(start)
	close(stop)
	<-done

	// Small row-count overrides may fit each map task under 8 MiB; at soak
	// scale the budget must fire.
	if rows >= 2_000_000 && m.Totals().Spills == 0 {
		t.Error("full-scale leg: 8 MiB budget never fired")
	}
	if leaked := leftIn(dir); len(leaked) != 0 {
		t.Errorf("full-scale leg leaked run files: %v", leaked)
	}
	t.Logf("%d rows in %v: output %x/%d records, %d spills (%d MiB spilled), peak runtime memory %d MiB",
		rows, elapsed.Round(time.Second), sum, recs, m.Totals().Spills, m.Totals().SpillBytes>>20, peak.Load()>>20)

	limit := debug.SetMemoryLimit(-1) // read without changing
	if limit == math.MaxInt64 {
		t.Log("GOMEMLIMIT unset; skipping the RSS ceiling assertion")
		return
	}
	ceiling := uint64(limit) + uint64(limit)/4
	if peak.Load() > ceiling {
		t.Errorf("peak runtime memory %d bytes exceeds 1.25x GOMEMLIMIT (%d bytes)", peak.Load(), ceiling)
	}
}
