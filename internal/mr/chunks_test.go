package mr

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
)

// chunkRecordSize is the value size of input record i: mostly small values
// of assorted sizes, so records fall on both sides of every chunk boundary
// of the emit buffer and the arena, and now and then one of exactly a
// quarter chunk (the largest copy that still goes into a chunk) or larger
// (a copy of its own).
func chunkRecordSize(i int) int {
	switch {
	case i%251 == 0:
		return maxChunk/4 + 1 + i%5000
	case i%250 == 0:
		return maxChunk / 4
	}
	return []int{0, 1, 5, 31, 200, 1500}[i%6]
}

// chunkRecordValue is input record i's value.
func chunkRecordValue(i int) []byte {
	v := make([]byte, chunkRecordSize(i))
	for j := range v {
		v[j] = byte(i*31 + j)
	}
	return v
}

// TestChunkedMapOutputKeepsRecords: every record a map attempt emits reaches
// its reducer with its own bytes, whichever emit path copied it and whether
// the attempt's chunks were recycled by spill flushes: records on both sides
// of every chunk boundary, of a quarter chunk, and larger than that.
func TestChunkedMapOutputKeepsRecords(t *testing.T) {
	const n = 6000
	input := make([]Pair, n)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i)}
	}
	for _, leg := range []struct {
		name     string
		zeroCopy bool  // Emit, as MR-Cube's mappers do, instead of EmitBytes
		budget   int64 // a spill budget recycles the chunks at every flush
		combine  bool
	}{
		{name: "in memory"},
		{name: "spill budget", budget: 64 << 10, combine: true},
		{name: "zero-copy Emit", zeroCopy: true},
		{name: "zero-copy Emit under a budget", zeroCopy: true, budget: 64 << 10},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[int]bool)
			job := &Job{
				Name:      "chunks",
				TaskState: func() any { return new([2][]byte) },
				MapPair: func(ctx *MapCtx, key string, _ []byte) {
					i, _ := strconv.Atoi(key)
					if leg.zeroCopy {
						ctx.Emit(fmt.Sprintf("k%06d", i), chunkRecordValue(i))
						return
					}
					// Scratch buffers reused, and scribbled over, after
					// every emit: a record that aliased them would change.
					buf := ctx.State().(*[2][]byte)
					buf[0] = fmt.Appendf(buf[0][:0], "k%06d", i)
					buf[1] = append(buf[1][:0], chunkRecordValue(i)...)
					ctx.EmitBytes(buf[0], buf[1])
					clear(buf[0])
					clear(buf[1])
				},
				Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
					i, err := strconv.Atoi(key[1:])
					if err != nil {
						t.Errorf("key %q", key)
						return
					}
					if len(vals) != 1 || !bytes.Equal(vals[0], chunkRecordValue(i)) {
						t.Errorf("record %d: %d values, first of %d bytes, want 1 of %d", i, len(vals), len(vals[0]), chunkRecordSize(i))
					}
					mu.Lock()
					seen[i] = true
					mu.Unlock()
				},
			}
			if leg.combine {
				job.Combine = func(_ string, vals [][]byte) [][]byte { return vals }
			}
			eng := New(Config{Workers: 2, Parallelism: 1, SpillBudgetBytes: leg.budget, SpillDir: t.TempDir()}, dfs.New(false))
			res, err := eng.RunPairs(job, input)
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != n {
				t.Errorf("%d of %d records reduced", len(seen), n)
			}
			if spilled := res.Metrics.Spills > 0; spilled != (leg.budget > 0) {
				t.Errorf("spills = %d at budget %d", res.Metrics.Spills, leg.budget)
			}
		})
	}
}

// TestArenaCapacityBound: a map attempt's arena never holds more than the
// bytes copied into it plus one chunk, at any point of the attempt — it is
// never copied to grow, so it leaves no outgrown arrays behind for the
// emitted records to keep alive. Every copy is 16 bytes, which tiles every
// chunk exactly, so any slack beyond one chunk is growth, not tail waste.
func TestArenaCapacityBound(t *testing.T) {
	const n = 1 << 16 // 2 MiB of copies
	input := make([]Pair, n)
	for i := range input {
		input[i] = Pair{Key: fmt.Sprintf("%016d", i), Val: []byte(fmt.Sprintf("%016x", i))}
	}
	copied, worst := 0, 0
	job := &Job{
		Name: "arena-cap",
		MapPair: func(ctx *MapCtx, key string, val []byte) {
			ctx.EmitBytes([]byte(key), val)
			copied += len(key) + len(val)
			if over := arenaCap(ctx) - copied; over > worst {
				worst = over
			}
		},
		Reduce: func(*RedCtx, string, [][]byte) {},
	}
	eng := New(Config{Workers: 1}, dfs.New(false))
	if _, err := eng.RunPairs(job, input); err != nil {
		t.Fatal(err)
	}
	if copied != 32*n {
		t.Fatalf("copied %d bytes, want %d", copied, 32*n)
	}
	if worst > maxChunk {
		t.Errorf("arena capacity reached %d bytes over the %d copied, want at most one chunk (%d)", worst, copied, maxChunk)
	}
}
