package mr

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
)

// chunkRecordSize is the value size of input record i: mostly small values
// of assorted sizes, so records fall on both sides of every chunk boundary
// of the rows and the arena, now and then one of exactly a quarter chunk
// (the largest copy a reduce attempt's arena puts into a chunk) or larger
// (a copy of its own there), and a few larger than a whole chunk (a map
// arena chunk of their own).
func chunkRecordSize(i int) int {
	switch {
	case i%997 == 0:
		return maxChunk + 1 + i%3000
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
// of every chunk boundary, of a quarter chunk, and larger than that — up to
// larger than a whole chunk.
func TestChunkedMapOutputKeepsRecords(t *testing.T) {
	const n = 6000
	input := make([]Pair, n)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i)}
	}
	for _, leg := range []struct {
		name    string
		emit    bool  // Emit, as MR-Cube's mappers do, instead of EmitBytes
		budget  int64 // a spill budget recycles the chunks at every flush
		combine bool
	}{
		{name: "in memory"},
		{name: "spill budget", budget: 64 << 10, combine: true},
		{name: "Emit", emit: true},
		{name: "Emit under a budget", emit: true, budget: 64 << 10},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[int]bool)
			job := &Job{
				Name:      "chunks",
				TaskState: func() any { return new([2][]byte) },
				MapPair: func(ctx *MapCtx, key string, _ []byte) {
					i, _ := strconv.Atoi(key)
					if leg.emit {
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

// TestArenaRecordAddresses: every row a map arena returns addresses its own
// record, through chunk growth, records of every size up to larger than a
// chunk — empty ones, and keys and values on both sides of the 16-bit
// lengths a row holds — and resets, after which a chunk made for one
// oversized record is not refilled, where offsets past 16 bits would alias
// other chunks.
func TestArenaRecordAddresses(t *testing.T) {
	odd := []Pair{
		{},
		{Key: strings.Repeat("k", 0xfffe), Val: []byte("v")},
		{Key: strings.Repeat("k", 0xffff)},
		{Key: strings.Repeat("k", 70000), Val: bytes.Repeat([]byte("v"), 0xffff)},
		{Key: "k", Val: bytes.Repeat([]byte("v"), 0xfffe)},
		{Val: bytes.Repeat([]byte("v"), 0x10000)},
	}
	var a arena
	for cycle := 0; cycle < 3; cycle++ {
		var rows []IndexRow
		var want []Pair
		for i, size := 0, 0; size < 3*maxChunk; i++ {
			p := Pair{Key: fmt.Sprintf("c%d-%d", cycle, i), Val: chunkRecordValue(i + cycle)}
			if i%7 == 0 {
				p = odd[(i/7+cycle)%len(odd)]
			}
			rows = append(rows, a.record(p.Key, p.Val))
			want = append(want, p)
			size += len(p.Key) + len(p.Val)
		}
		for i, row := range rows {
			key, val := recordAt(a.used(), row)
			if key != want[i].Key || !bytes.Equal(val, want[i].Val) || cap(val) != len(val) {
				t.Fatalf("cycle %d record %d: got %q with a %d-byte value (cap %d), want %q with %d",
					cycle, i, key, len(val), cap(val), want[i].Key, len(want[i].Val))
			}
		}
		a.reset()
		for _, chunk := range a.list {
			if cap(chunk) > maxChunk {
				t.Fatalf("cycle %d: reset kept a %d-byte chunk", cycle, cap(chunk))
			}
		}
	}
	// An empty record right after a full 64 KiB chunk starts the next one.
	a = arena{}
	for a.inUse == 0 || len(a.list[a.inUse-1]) < maxChunk {
		a.record("", make([]byte, 1024))
	}
	row := a.record("", nil)
	if key, val := recordAt(a.used(), row); key != "" || len(val) != 0 || row.Pos&0xffff != 0 {
		t.Fatalf("empty record after a full chunk: at offset %d, %q and %d value bytes", row.Pos&0xffff, key, len(val))
	}
}
