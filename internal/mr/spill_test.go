package mr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

// spillWords is a workload big enough to force several flushes at small
// budgets: ~2000 words over a 26-word vocabulary.
func spillWords() []string {
	var words []string
	for i := 0; i < 2000; i++ {
		words = append(words, fmt.Sprintf("word-%c", 'a'+i%26))
	}
	return words
}

// runSpill executes the word-count job at the given spill budget and
// returns the final counts, the DFS checksum of the reduce output, and the
// job metrics. Parallelism 1 keeps run ordering trivially deterministic;
// the cross-parallelism contract is covered by the integration table.
func runSpill(t *testing.T, budget int64, dir, faults string, combine bool) (map[string]int64, uint64, RoundMetrics) {
	t.Helper()
	return runSpillWide(t, Config{SpillBudgetBytes: budget, SpillDir: dir}, faults, combine, 0)
}

// runSpillWide is runSpill under an explicit spill configuration, with
// every map and combiner value padded by pad bytes of sparse filler after
// its count — the wide combinable state of a histogram-like aggregate. The
// reduce output ignores the padding, so checksums compare across widths.
func runSpillWide(t *testing.T, cfg Config, faults string, combine bool, pad int) (map[string]int64, uint64, RoundMetrics) {
	t.Helper()
	plan, err := ParseFaultPlan(faults)
	if err != nil {
		t.Fatal(err)
	}
	filler := make([]byte, pad)
	for i := 0; i < pad; i += 16 {
		filler[i] = byte(i)
	}
	value := func(n int64) []byte { return append(binary.AppendVarint(nil, n), filler...) }
	total := func(vals [][]byte) int64 {
		var sum int64
		for _, v := range vals {
			n, _ := binary.Varint(v)
			sum += n
		}
		return sum
	}
	tuples, _ := tuplesFromWords(spillWords())
	counts := make(map[string]int64)
	var mu sync.Mutex
	job := &Job{
		Name: "spillcount",
		MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
			ctx.Emit(fmt.Sprintf("word-%c", 'a'+rune(tp.Dims[0])%26), value(1))
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			n := total(vals)
			mu.Lock()
			counts[key] += n
			mu.Unlock()
			ctx.EmitKV(key, binary.AppendVarint(nil, n))
		},
	}
	if combine {
		job.Combine = func(key string, vals [][]byte) [][]byte { return [][]byte{value(total(vals))} }
	}
	cfg.Workers, cfg.Parallelism, cfg.Faults = 4, 1, plan
	eng := New(cfg, dfs.New(false))
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return counts, eng.FS.TotalChecksum("out/spillcount/"), res.Metrics
}

// TestSpillByteIdentity is the core out-of-core contract: the reduce output
// is byte-identical whether nothing, something, or everything spills.
func TestSpillByteIdentity(t *testing.T) {
	for _, combine := range []bool{false, true} {
		name := "plain"
		if combine {
			name = "combiner"
		}
		t.Run(name, func(t *testing.T) {
			baseCounts, baseSum, baseM := runSpill(t, 0, "", "", combine)
			if baseM.Spills != 0 || baseM.SpillBytes != 0 {
				t.Fatalf("budget 0 spilled: %d spills, %d bytes", baseM.Spills, baseM.SpillBytes)
			}
			for _, budget := range []int64{1, 64, 4096} {
				dir := t.TempDir()
				counts, sum, m := runSpill(t, budget, dir, "", combine)
				if m.Spills == 0 || m.SpillBytes == 0 {
					t.Fatalf("budget %d: nothing spilled (%d spills, %d bytes)", budget, m.Spills, m.SpillBytes)
				}
				if sum != baseSum {
					t.Errorf("budget %d: DFS output checksum %x differs from in-memory %x", budget, sum, baseSum)
				}
				if len(counts) != len(baseCounts) {
					t.Fatalf("budget %d: %d keys, want %d", budget, len(counts), len(baseCounts))
				}
				for k, v := range baseCounts {
					if counts[k] != v {
						t.Errorf("budget %d: count(%s) = %d, want %d", budget, k, counts[k], v)
					}
				}
				if leaked := listAll(t, dir); len(leaked) != 0 {
					t.Errorf("budget %d: leaked spill files: %v", budget, leaked)
				}
				// Shuffle/reduce-input accounting must mirror the in-memory
				// run's exactly (pre-combine volumes are budget-independent).
				if !combine && (m.ShuffleRecords != baseM.ShuffleRecords || m.ShuffleBytes != baseM.ShuffleBytes) {
					t.Errorf("budget %d: shuffle %d rec/%d B, want %d/%d",
						budget, m.ShuffleRecords, m.ShuffleBytes, baseM.ShuffleRecords, baseM.ShuffleBytes)
				}
			}
		})
	}

	// Wide combinable values (>= 512 B each): the block codec must not
	// change a byte of output, and lz must at least halve what reaches disk.
	t.Run("wide values raw vs lz", func(t *testing.T) {
		_, memSum, _ := runSpillWide(t, Config{}, "", true, 512)
		disk := make(map[string]int64)
		for _, codec := range []string{"raw", "lz"} {
			_, sum, m := runSpillWide(t, Config{SpillBudgetBytes: 4096, SpillDir: t.TempDir(), SpillCodec: codec}, "", true, 512)
			if m.Spills == 0 {
				t.Fatalf("%s: nothing spilled", codec)
			}
			if sum != memSum {
				t.Errorf("%s: DFS output checksum %x differs from in-memory %x", codec, sum, memSum)
			}
			disk[codec] = m.CompressedSpillBytes
		}
		if disk["lz"]*2 > disk["raw"] {
			t.Errorf("lz wrote %d B to disk, raw %d B: less than a 2x reduction", disk["lz"], disk["raw"])
		}
	})
}

// TestSpillRecoveryUnderFaults: retried, node-crash-lost and timed-out
// attempts must discard their run files and recover to the identical
// output, with no file leaked.
func TestSpillRecoveryUnderFaults(t *testing.T) {
	_, cleanSum, _ := runSpill(t, 0, "", "", false)
	plans := []struct{ name, spec string }{
		{"map-crash", "*:map:*:crash"},
		{"reduce-mid-emit", "*:reduce:*:mid-emit@4"},
		{"node-crash", "*:node:1:node-crash"},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			_, sum, m := runSpill(t, 1, dir, p.spec, false)
			if sum != cleanSum {
				t.Errorf("faulted spilled output %x differs from clean in-memory %x", sum, cleanSum)
			}
			if m.Spills == 0 {
				t.Error("expected spills at budget 1")
			}
			if leaked := listAll(t, dir); len(leaked) != 0 {
				t.Errorf("leaked spill files after fault recovery: %v", leaked)
			}
		})
	}
}

// TestSpillMetricsMatchTrace: every spill fires exactly one writer-side
// trace event carrying the exact encoded byte count, and the metrics are
// their sum — the two accountings cannot drift apart.
func TestSpillMetricsMatchTrace(t *testing.T) {
	var buf bytes.Buffer
	tuples, _ := tuplesFromWords(spillWords())
	counts := make(map[string]int64)
	job := wordCountJob(counts)
	eng := New(Config{Workers: 4, Parallelism: 1, SpillBudgetBytes: 512,
		Tracer: NewJSONLTracer(&buf)}, dfs.New(false))
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	var traced int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == EvSpill {
			events++
			traced += ev.Bytes
			if ev.Bytes <= 0 {
				t.Errorf("spill event with %d bytes", ev.Bytes)
			}
		}
	}
	m := res.Metrics
	if m.Spills == 0 {
		t.Fatal("expected spills at a 512-byte budget")
	}
	if events != m.Spills || traced != m.SpillBytes {
		t.Errorf("trace saw %d spills/%d bytes, metrics say %d/%d", events, traced, m.Spills, m.SpillBytes)
	}
}

// TestExternalAggExactBytes is the satellite-1 regression: reduce-side
// external-aggregation spill volume must be the exact encoded size of the
// excess records — not the historical hardcoded 24-byte-per-record guess.
func TestExternalAggExactBytes(t *testing.T) {
	const n = 5000
	val := []byte("0123456789abcdef")
	var tuples []relation.Tuple
	for i := 0; i < n; i++ {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{1}, Measure: 1})
	}
	job := &Job{
		Name:         "extagg",
		MapTuple:     func(ctx *MapCtx, tp relation.Tuple) { ctx.Emit("hot", val) },
		Reduce:       func(*RedCtx, string, [][]byte) {},
		MemInflation: 8,
	}
	eng := New(Config{Workers: 4, Parallelism: 1}, nil)
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	// All n records carry the key "hot" and land on one reducer; the
	// records beyond the task's capacity (oomMem/inflation) are aggregated
	// externally. Re-encode that excess independently through the codec.
	capRecords := MinOOMMemTuples / 8 // oomMem floors at MinOOMMemTuples; inflation 8
	excess := n - capRecords
	want := int64(len(appendSpillRecord(nil, "", "hot", val))) +
		int64(excess-1)*int64(len(appendSpillRecord(nil, "hot", "hot", val)))
	var got, spills int64
	for _, r := range res.Metrics.Reducers {
		got += r.SpillBytes
		spills += r.Spills
	}
	if got != want {
		t.Errorf("external-agg SpillBytes = %d, want exact encoded size %d", got, want)
	}
	if spills != 1 {
		t.Errorf("Spills = %d, want 1 (one oversized group)", spills)
	}
}

// TestStreamReduceValueRetention is the satellite-3 aliasing regression:
// a reducer may retain value slices past its Reduce call (the mirror image
// of Emit's zero-copy contract), so the streamed merge must hand it stable
// copies, never the merger's reused decode buffers.
func TestStreamReduceValueRetention(t *testing.T) {
	words := spillWords()
	tuples, _ := tuplesFromWords(words)
	retained := make(map[string][][]byte)
	var mu sync.Mutex
	job := &Job{
		Name: "retain",
		MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
			key := fmt.Sprintf("word-%c", 'a'+rune(tp.Dims[0])%26)
			// Value repeats the key so corruption is detectable per slice.
			ctx.Emit(key, []byte(strings.Repeat(key, 3)))
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			mu.Lock()
			// Only the container is copied (it is per-group scratch in every
			// merge); the value slices are retained as handed out.
			retained[key] = append([][]byte(nil), vals...)
			mu.Unlock()
			ctx.EmitKV(key, vals[0])
		},
	}
	eng := New(Config{Workers: 4, Parallelism: 1, SpillBudgetBytes: 1,
		SpillDir: t.TempDir()}, dfs.New(false))
	if _, err := eng.RunTuples(job, tuples); err != nil {
		t.Fatal(err)
	}
	for key, vals := range retained {
		want := strings.Repeat(key, 3)
		for i, v := range vals {
			if string(v) != want {
				t.Fatalf("key %s value %d corrupted after reduce: %q (aliased a reused buffer?)", key, i, v)
			}
		}
	}
}

// TestSpillSpeculationCleanup: the losing attempt of a speculative race
// must take its run file with it.
func TestSpillSpeculationCleanup(t *testing.T) {
	dir := t.TempDir()
	_, sum, m := runSpill(t, 1, dir, "", false)
	_ = m
	specDir := t.TempDir()
	plan, err := ParseFaultPlan("*:map:2:slow@2")
	if err != nil {
		t.Fatal(err)
	}
	tuples, _ := tuplesFromWords(spillWords())
	counts := make(map[string]int64)
	var mu sync.Mutex
	job := &Job{
		Name: "spillcount",
		MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
			ctx.Emit(fmt.Sprintf("word-%c", 'a'+rune(tp.Dims[0])%26), binary.AppendVarint(nil, 1))
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			var total int64
			for _, v := range vals {
				n, _ := binary.Varint(v)
				total += n
			}
			mu.Lock()
			counts[key] += total
			mu.Unlock()
			ctx.EmitKV(key, binary.AppendVarint(nil, total))
		},
	}
	eng := New(Config{Workers: 4, Parallelism: 1, Faults: plan, SpeculativeSlack: 0.0005,
		SpillBudgetBytes: 1, SpillDir: specDir}, dfs.New(false))
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SpeculativeLaunched == 0 {
		t.Fatal("expected a speculative attempt")
	}
	if got := eng.FS.TotalChecksum("out/spillcount/"); got != sum {
		t.Errorf("speculated spilled output %x differs from clean %x", got, sum)
	}
	if leaked := listAll(t, specDir); len(leaked) != 0 {
		t.Errorf("speculation loser leaked run files: %v", leaked)
	}
}
