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

// TestSortPairsStableMatchesSliceStable is the property test for the
// map-side sort: on random inputs heavy with duplicate keys it must agree
// exactly — order of equal keys included — with sort.SliceStable.
func TestSortPairsStableMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch []Pair
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		keySpace := 1 + rng.Intn(40)
		pairs := randPairs(rng, n, keySpace)
		want := append([]Pair(nil), pairs...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].Key < want[b].Key })
		scratch = sortPairsStable(pairs, scratch)
		if !reflect.DeepEqual(pairs, want) {
			t.Fatalf("trial %d (n=%d, keys=%d): sortPairsStable diverges from sort.SliceStable", trial, n, keySpace)
		}
	}
}

// TestStreamMergerMatchesSliceStable is the property test of the merge's
// order-equivalence claim: the loser-tree merge of per-run stably-sorted
// runs must equal sort.SliceStable applied to the run-ordered concatenation
// — whether the runs are memory-backed, file-backed or a mix — and only
// memory-backed records may be handed out as stable.
func TestStreamMergerMatchesSliceStable(t *testing.T) {
	for _, mode := range []string{"memory", "file", "mixed"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			sd := newSpillDir(t.TempDir(), nil)
			defer sd.cleanup()
			var scratch []Pair
			for trial := 0; trial < 200; trial++ {
				k := rng.Intn(9) // 0 runs and 1 run are valid edge cases
				runs := make([]streamSource, k)
				var concat []Pair
				for r := 0; r < k; r++ {
					pairs := randPairs(rng, rng.Intn(80), 1+rng.Intn(15))
					concat = append(concat, pairs...)
					scratch = sortPairsStable(pairs, scratch)
					if mode == "file" || (mode == "mixed" && rng.Intn(2) == 0) {
						runs[r] = writeRun(t, sd, blockcodec.Raw{}, pairs)
					} else {
						runs[r] = streamSource{pairs: pairs}
					}
				}
				want := append([]Pair(nil), concat...)
				sort.SliceStable(want, func(a, b int) bool { return want[a].Key < want[b].Key })

				m := newStreamMerger(runs, 0)
				for pass := 0; pass < 2; pass++ { // second pass exercises reset()
					m.reset()
					n := 0
					for rec, stable := m.next(); rec != nil; rec, stable = m.next() {
						if n >= len(want) || rec.Key != want[n].Key || !bytes.Equal(rec.Val, want[n].Val) {
							t.Fatalf("trial %d pass %d (k=%d): record %d diverges from stable sort of concatenation",
								trial, pass, k, n)
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
						t.Fatalf("trial %d pass %d (k=%d): merged %d of %d records", trial, pass, k, n, len(want))
					}
				}
				m.close()
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

// TestEmitNoCopyContract pins down the documented Emit semantics: Emit
// retains val as passed (mutating the buffer afterwards corrupts the
// record), while EmitCopied and EmitBytes snapshot their arguments so the
// caller may reuse its scratch immediately.
func TestEmitNoCopyContract(t *testing.T) {
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

	// Emit does not copy: the reducer observes the post-Emit mutation.
	got := run(func(ctx *MapCtx) {
		buf := []byte("old")
		ctx.Emit("k", buf)
		copy(buf, "new")
	})
	if got["k"] != "new" {
		t.Errorf("Emit copied val: reducer saw %q, want the mutated %q", got["k"], "new")
	}

	// EmitCopied snapshots val.
	got = run(func(ctx *MapCtx) {
		buf := []byte("old")
		ctx.EmitCopied("k", buf)
		copy(buf, "new")
	})
	if got["k"] != "old" {
		t.Errorf("EmitCopied did not copy val: reducer saw %q, want %q", got["k"], "old")
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

// TestTupleInputBytesMemoized verifies the per-relation memoization of the
// input-byte accounting: repeated rounds over the same tuple slice report
// identical InBytes (same as a fresh engine computes), and a different
// slice is not served from the stale cache.
func TestTupleInputBytesMemoized(t *testing.T) {
	tuplesA, _ := tuplesFromWords([]string{"a", "b", "c", "a", "b", "a"})
	tuplesB, _ := tuplesFromWords([]string{"longer", "words", "entirely", "different", "here"})

	inBytes := func(eng *Engine, tuples []relation.Tuple) int64 {
		job := &Job{
			Name:     "bytes-probe",
			MapTuple: func(ctx *MapCtx, t relation.Tuple) { ctx.Emit("k", nil) },
			Reduce:   func(ctx *RedCtx, key string, vals [][]byte) {},
		}
		res, err := eng.RunTuples(job, tuples)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, m := range res.Metrics.Mappers {
			total += m.InBytes
		}
		return total
	}

	eng := New(Config{Workers: 3, Parallelism: 1}, dfs.New(true))
	firstA := inBytes(eng, tuplesA)
	if again := inBytes(eng, tuplesA); again != firstA {
		t.Errorf("memoized second round reports %d input bytes, first reported %d", again, firstA)
	}
	if want := tupleInputBytes(tuplesA); firstA != want {
		t.Errorf("accounted %d input bytes, direct computation gives %d", firstA, want)
	}
	gotB := inBytes(eng, tuplesB)
	if want := tupleInputBytes(tuplesB); gotB != want {
		t.Errorf("after switching relations: accounted %d, want %d (stale cache?)", gotB, want)
	}
	fresh := New(Config{Workers: 3, Parallelism: 1}, dfs.New(true))
	if got := inBytes(fresh, tuplesB); got != gotB {
		t.Errorf("fresh engine accounts %d input bytes, memoizing engine %d", got, gotB)
	}
}

// BenchmarkShuffleMerge measures the reduce-side k-way merge in isolation:
// 8 pre-sorted runs of 16k pairs each, streamed through the loser tree.
func BenchmarkShuffleMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	runs := make([]streamSource, 8)
	var scratch []Pair
	total := 0
	for r := range runs {
		runs[r].pairs = randPairs(rng, 16<<10, 512)
		scratch = sortPairsStable(runs[r].pairs, scratch)
		total += len(runs[r].pairs)
	}
	m := newStreamMerger(runs, 0)
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
	buf := make([]Pair, len(out))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, out)
		ctx := &MapCtx{eng: eng, job: job}
		if got := eng.combine(job, ctx, buf); len(got) != 1024 {
			b.Fatalf("combined to %d groups, want 1024", len(got))
		}
	}
}
