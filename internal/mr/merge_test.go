package mr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr/blockcodec"
	"github.com/spcube/spcube/internal/relation"
)

// randPairs generates n pairs with keys drawn from a small alphabet (so
// duplicates are frequent) and values that identify the emission index —
// the witness for stability checks.
func randPairs(rng *rand.Rand, n, keySpace int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		k := fmt.Sprintf("k%03d", rng.Intn(keySpace))
		out[i] = Pair{Key: k, Val: binary.AppendUvarint(nil, uint64(i))}
	}
	return out
}

// keyShapes are the key distributions the sort and merge property tests
// draw buckets from. Beyond a small alphabet heavy with duplicates they hold
// what a key-prefix sort can get wrong: keys of 0–20 bytes with zero bytes
// in them, keys that differ only by trailing zero bytes ("ab" beside
// "ab\x00"), many keys that share their first 8 bytes, and all keys equal.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand) string
}{
	{"words", func(rng *rand.Rand) string { return fmt.Sprintf("k%03d", rng.Intn(40)) }},
	{"len0to20", func(rng *rand.Rand) string {
		b := make([]byte, rng.Intn(21))
		for i := range b {
			b[i] = "\x00\x01ab\xff"[rng.Intn(5)]
		}
		return string(b)
	}},
	{"zeroPadding", func(rng *rand.Rand) string {
		return []string{"", "\x00", "ab", "ab\x00", "ab\x00\x00", "ab\x01", "abcdefg",
			"abcdefg\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi"}[rng.Intn(11)]
	}},
	{"sharedPrefix", func(rng *rand.Rand) string {
		b := []byte("G\x05\x01\x02\x03\x04\x05\x06")
		for n := rng.Intn(5); n > 0; n-- {
			b = append(b, "\x00\x01\x7f\x80"[rng.Intn(4)])
		}
		return string(b)
	}},
	{"allEqual", func(*rand.Rand) string { return "same-key" }},
}

// shapedPairs generates n pairs with keys drawn by key and values that
// identify the emission index — the witness for stability checks.
func shapedPairs(rng *rand.Rand, n int, key func(*rand.Rand) string) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: key(rng), Val: binary.AppendUvarint(nil, uint64(i))}
	}
	return out
}

// memRun is pairs as a memory-backed run: copied into an arena as a map
// attempt's emits are, and its rows stably sorted as partitionSort sorts a
// bucket.
func memRun(pairs []Pair, s *IndexScratch) streamSource {
	var a arena
	src := streamSource{rows: make([]IndexRow, len(pairs))}
	for i, p := range pairs {
		src.rows[i] = a.record(p.Key, p.Val)
		src.raw += pairBytes(p.Key, p.Val)
	}
	src.arena = a.used()
	sortRows(src.rows, src.arena, s)
	return src
}

// runPairs reads a memory-backed run's records back, in row order.
func runPairs(src streamSource) []Pair {
	out := make([]Pair, len(src.rows))
	for i, row := range src.rows {
		out[i].Key, out[i].Val = recordAt(src.arena, row)
	}
	return out
}

// TestSortPairsStableMatchesSliceStable is the property test for the
// map-side sort: on random buckets of every key shape, up to 5,000 records,
// the rows sortRows orders must address the records in exactly — order of
// equal keys included — sort.SliceStable's order.
func TestSortPairsStableMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch IndexScratch
	for _, shape := range keyShapes {
		for trial := 0; trial < 100; trial++ {
			n := rng.Intn(300)
			if trial%20 == 0 {
				n = 5000 - trial
			}
			pairs := shapedPairs(rng, n, shape.key)
			want := append([]Pair(nil), pairs...)
			sort.SliceStable(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			if got := runPairs(memRun(pairs, &scratch)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d (n=%d): sortRows diverges from sort.SliceStable", shape.name, trial, n)
			}
		}
	}
}

// TestStreamMergerMatchesSliceStable is the property test of the merge's
// order-equivalence claim: the loser-tree merge of per-run stably-sorted
// runs must equal sort.SliceStable applied to the run-ordered concatenation
// — whether the runs are memory-backed, file-backed or a mix, over every
// key shape — and only memory-backed records may be handed out as stable.
func TestStreamMergerMatchesSliceStable(t *testing.T) {
	for _, mode := range []string{"memory", "file", "mixed"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			sd := newSpillDir(t.TempDir(), nil)
			defer sd.cleanup()
			var scratch IndexScratch
			for trial := 0; trial < 200; trial++ {
				shape := keyShapes[trial%len(keyShapes)]
				k := rng.Intn(9) // 0 runs and 1 run are valid edge cases
				runs := make([]streamSource, k)
				var concat []Pair
				for r := 0; r < k; r++ {
					n := rng.Intn(80)
					if trial%50 == 0 {
						n = rng.Intn(5000)
					}
					pairs := shapedPairs(rng, n, shape.key)
					for i := range pairs {
						pairs[i].Val = fmt.Appendf(nil, "run%d#%d", r, i)
					}
					concat = append(concat, pairs...)
					runs[r] = memRun(pairs, &scratch)
					if mode == "file" || (mode == "mixed" && rng.Intn(2) == 0) {
						runs[r] = writeRun(t, sd, blockcodec.Raw{}, runPairs(runs[r]))
					}
				}
				want := append([]Pair(nil), concat...)
				sort.SliceStable(want, func(a, b int) bool { return want[a].Key < want[b].Key })

				m := newStreamMerger(runs)
				for pass := 0; pass < 2; pass++ { // second pass exercises reset()
					m.reset()
					n := 0
					for rec, stable := m.next(); rec != nil; rec, stable = m.next() {
						if n >= len(want) || rec.Key != want[n].Key || !bytes.Equal(rec.Val, want[n].Val) {
							t.Fatalf("%s trial %d pass %d (k=%d): record %d diverges from stable sort of concatenation",
								shape.name, trial, pass, k, n)
						}
						if mode != "mixed" && stable != (mode == "memory") {
							t.Fatalf("trial %d: %s-backed record handed out with stable=%v", trial, mode, stable)
						}
						n++
					}
					if m.err != nil {
						t.Fatal(m.err)
					}
					if n != len(want) {
						t.Fatalf("%s trial %d pass %d (k=%d): merged %d of %d records", shape.name, trial, pass, k, n, len(want))
					}
				}
			}
		})
	}
}

// TestCombineExpandingCombiner is the regression test for the aliasing bug
// in the historical Engine.combine: rebuilding into out[:0] while still
// reading out[j] corrupted later groups whenever a combiner returned more
// values than it consumed. The expanding combiner below returns every
// value twice; all duplicated values must survive to the reducer intact.
func TestCombineExpandingCombiner(t *testing.T) {
	words := []string{"a", "b", "a", "c", "b", "a", "d", "e", "f", "g"}
	tuples, dict := tuplesFromWords(words)
	got := make(map[string][]string)
	job := &Job{
		Name: "expanding",
		MapTuple: func(ctx *MapCtx, t relation.Tuple) {
			key := fmt.Sprintf("w%d", t.Dims[0])
			ctx.Emit(key, []byte(key))
		},
		Combine: func(key string, vals [][]byte) [][]byte {
			out := make([][]byte, 0, 2*len(vals))
			for _, v := range vals {
				out = append(out, v, v)
			}
			return out
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			for _, v := range vals {
				got[key] = append(got[key], string(v))
			}
			ctx.EmitKV(key, nil)
		},
	}
	eng := New(Config{Workers: 1, Parallelism: 1}, dfs.New(true))
	if _, err := eng.RunTuples(job, tuples); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{"a": 3, "b": 2, "c": 1, "d": 1, "e": 1, "f": 1, "g": 1}
	for w, n := range counts {
		key := fmt.Sprintf("w%d", dict[w])
		vals := got[key]
		if len(vals) != 2*n {
			t.Fatalf("key %s: %d values after expanding combine, want %d", key, len(vals), 2*n)
		}
		for _, v := range vals {
			if v != key {
				t.Fatalf("key %s: corrupted value %q — combiner output aliased a later group", key, v)
			}
		}
	}
}

// TestEmitCopyContract pins down the documented emit semantics: Emit and
// EmitBytes copy their arguments into the attempt's arena, so the caller may
// reuse or modify its buffers as soon as they return.
func TestEmitCopyContract(t *testing.T) {
	run := func(mapTuple func(ctx *MapCtx)) map[string]string {
		got := make(map[string]string)
		job := &Job{
			Name:     "emit-contract",
			MapTuple: func(ctx *MapCtx, _ relation.Tuple) { mapTuple(ctx) },
			Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
				got[key] = string(vals[0])
				ctx.EmitKV(key, vals[0])
			},
		}
		eng := New(Config{Workers: 1, Parallelism: 1}, dfs.New(true))
		if _, err := eng.RunTuples(job, []relation.Tuple{{Dims: []relation.Value{0}, Measure: 1}}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Emit snapshots val.
	got := run(func(ctx *MapCtx) {
		buf := []byte("old")
		ctx.Emit("k", buf)
		copy(buf, "new")
	})
	if got["k"] != "old" {
		t.Errorf("Emit did not copy val: reducer saw %q, want %q", got["k"], "old")
	}

	// EmitBytes snapshots both key and value.
	got = run(func(ctx *MapCtx) {
		kb := []byte("key1")
		vb := []byte("old")
		ctx.EmitBytes(kb, vb)
		copy(kb, "KEYX")
		copy(vb, "new")
	})
	if got["key1"] != "old" {
		t.Errorf("EmitBytes did not snapshot: got %v, want key1→old", got)
	}
}

// TestHashPartitionMatchesFNV verifies that the inlined hash is
// byte-identical to the historical implementation: fnv.New64a() fed the
// seed's 8 little-endian bytes followed by the key.
func TestHashPartitionMatchesFNV(t *testing.T) {
	ref := func(seed uint64, key string, reducers int) int {
		h := fnv.New64a()
		var s [8]byte
		for i := 0; i < 8; i++ {
			s[i] = byte(seed >> (8 * uint(i)))
		}
		h.Write(s[:])
		h.Write([]byte(key))
		return int(h.Sum64() % uint64(reducers))
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Uint64()
		n := rng.Intn(24)
		key := make([]byte, n)
		rng.Read(key)
		reducers := 1 + rng.Intn(64)
		if got, want := HashPartition(seed, string(key), reducers), ref(seed, string(key), reducers); got != want {
			t.Fatalf("HashPartition(%d, %q, %d) = %d, want %d", seed, key, reducers, got, want)
		}
	}
	if got, want := HashPartition(42, "", 7), ref(42, "", 7); got != want {
		t.Fatalf("empty key: %d vs %d", got, want)
	}
}

// TestMapTaskInBytes holds each map task's InBytes to the encoded records of
// its own split, RecordOverhead framing each, in both input kinds: the tasks
// sum to the whole input's bytes, whatever the task count.
func TestMapTaskInBytes(t *testing.T) {
	var tuples []relation.Tuple
	var pairs []Pair
	for i, v := range []int64{0, -1, 1 << 7, 1 << 30, -1 << 62, 5, 1 << 14} {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{relation.Value(v), relation.Value(i << (4 * i))}, Measure: v})
		pairs = append(pairs, Pair{Key: fmt.Sprint(v), Val: make([]byte, i)})
	}
	tupleSizes := make([]int64, len(tuples))
	pairSizes := make([]int64, len(pairs))
	for i := range tuples {
		tupleSizes[i] = int64(len(relation.EncodeTuple(nil, tuples[i])) + RecordOverhead)
		pairSizes[i] = int64(len(pairs[i].Key) + len(pairs[i].Val) + RecordOverhead)
	}
	job := &Job{
		Name:     "bytes-probe",
		MapTuple: func(ctx *MapCtx, t relation.Tuple) { ctx.Emit("k", nil) },
		MapPair:  func(ctx *MapCtx, key string, val []byte) { ctx.Emit("k", nil) },
		Reduce:   func(ctx *RedCtx, key string, vals [][]byte) {},
	}
	for _, workers := range []int{1, 3} {
		for _, input := range []struct {
			name  string
			bytes []int64
			run   func(*Engine) (*RoundResult, error)
		}{
			{"tuples", tupleSizes, func(e *Engine) (*RoundResult, error) { return e.RunTuples(job, tuples) }},
			{"pairs", pairSizes, func(e *Engine) (*RoundResult, error) { return e.RunPairs(job, pairs) }},
		} {
			res, err := input.run(New(Config{Workers: workers, Parallelism: 1}, dfs.New(true)))
			if err != nil {
				t.Fatal(err)
			}
			var whole, sum int64
			for _, b := range input.bytes {
				whole += b
			}
			for task, m := range res.Metrics.Mappers {
				lo, hi := split(len(input.bytes), workers, task)
				var want int64
				for _, b := range input.bytes[lo:hi] {
					want += b
				}
				if m.InBytes != want {
					t.Errorf("%s, %d workers: task %d read %d bytes, its split is %d", input.name, workers, task, m.InBytes, want)
				}
				sum += m.InBytes
			}
			if len(res.Metrics.Mappers) != workers || sum != whole {
				t.Errorf("%s, %d workers: %d tasks read %d bytes, the input is %d", input.name, workers, len(res.Metrics.Mappers), sum, whole)
			}
		}
	}
}

// BenchmarkShuffleMerge measures the reduce-side k-way merge in isolation:
// 8 pre-sorted runs of 16k pairs each, streamed through the loser tree.
func BenchmarkShuffleMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	runs := make([]streamSource, 8)
	var scratch IndexScratch
	total := 0
	for r := range runs {
		runs[r] = memRun(randPairs(rng, 16<<10, 512), &scratch)
		total += len(runs[r].rows)
	}
	m := newStreamMerger(runs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.reset()
		n := 0
		for p, _ := m.next(); p != nil; p, _ = m.next() {
			n++
		}
		if n != total {
			b.Fatalf("merged %d of %d pairs", n, total)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkCombine measures the hash-grouping combiner on a mapper-sized
// buffer with heavy key duplication.
func BenchmarkCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	out := randPairs(rng, 32<<10, 1024)
	job := &Job{
		Name: "bench-combine",
		Combine: func(key string, vals [][]byte) [][]byte {
			return vals[:1]
		},
	}
	eng := New(Config{Workers: 1}, dfs.New(true))
	ctx := &MapCtx{eng: eng, job: job}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.rows.reset()
		ctx.arena.reset()
		for _, p := range out {
			ctx.rows.push(ctx.arena.record(p.Key, p.Val))
		}
		if eng.combine(job, ctx); ctx.rows.len() != 1024 {
			b.Fatalf("combined to %d groups, want 1024", ctx.rows.len())
		}
	}
}
