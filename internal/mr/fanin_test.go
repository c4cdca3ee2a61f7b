package mr

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// writeRun materializes one sorted bucket as an on-disk run and returns it
// as a merge source.
func writeRun(t *testing.T, sd *spillDir, codec blockcodec.Codec, pairs []Pair) streamSource {
	t.Helper()
	sf, err := sd.create("run-m-*")
	if err != nil {
		t.Fatal(err)
	}
	writeSpillSync(t, sf, [][]Pair{pairs}, codec)
	return streamSource{seg: &sf.spills[0][0]}
}

// fanInRuns builds a deliberately tie-heavy set of sorted runs: many runs
// share keys, so the lower-source-index tiebreak is exercised on nearly
// every pop.
func fanInRuns(t *testing.T, sd *spillDir, codec blockcodec.Codec, n int) []streamSource {
	t.Helper()
	runs := make([]streamSource, n)
	for i := 0; i < n; i++ {
		var pairs []Pair
		for k := 0; k < 20; k++ {
			key := fmt.Sprintf("key-%03d", (k+i)%25)
			if k > 0 && key < pairs[len(pairs)-1].Key {
				continue // keep the run sorted
			}
			pairs = append(pairs, Pair{Key: key, Val: []byte(fmt.Sprintf("run%d#%d", i, k))})
		}
		runs[i] = writeRun(t, sd, codec, pairs)
	}
	return runs
}

// drain pops every record from a merger into owned copies.
func drain(t *testing.T, m *streamMerger) []Pair {
	t.Helper()
	var out []Pair
	for rec, _ := m.next(); rec != nil; rec, _ = m.next() {
		out = append(out, Pair{Key: strings.Clone(rec.Key), Val: append([]byte(nil), rec.Val...)})
	}
	if m.err != nil {
		t.Fatal(m.err)
	}
	return out
}

// TestFanInMergeMatchesGlobalMerge is the order contract of multi-pass
// fan-in: whatever the cap, the surviving runs must stream exactly the
// records a single global merge over the original runs would emit, in the
// same order — ties between runs included. Each intermediate run is also
// charged to the cost model twice (written, then read back).
func TestFanInMergeMatchesGlobalMerge(t *testing.T) {
	for _, codecName := range blockcodec.Names() {
		for _, fanIn := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/fanin-%d", codecName, fanIn), func(t *testing.T) {
				codec, err := blockcodec.ByName(codecName)
				if err != nil {
					t.Fatal(err)
				}
				sd := newSpillDir(t.TempDir(), nil)
				defer sd.cleanup()
				r := &round{eng: New(Config{Workers: 4, MergeFanIn: fanIn}, dfs.New(false)), job: &Job{}, sd: sd, codec: codec}

				const nRuns = 17
				want := drain(t, newStreamMerger(fanInRuns(t, sd, codec, nRuns)))

				runs := fanInRuns(t, sd, codec, nRuns)
				var tm TaskMetrics
				merged, err := r.fanInMerge(new(streamMerger), runs, 0, &tm)
				if err != nil {
					t.Fatal(err)
				}
				if len(merged) > fanIn {
					t.Fatalf("fanInMerge left %d runs, cap is %d", len(merged), fanIn)
				}
				if tm.MergePasses == 0 {
					t.Fatal("expected intermediate merge passes")
				}
				// Each intermediate run is charged twice at disk bandwidth:
				// written, then read back by the next pass or the final merge.
				r.setCPUSeconds(PhaseReduce, &tm, false)
				if want := float64(2*tm.CompressedSpillBytes) / cost.DiskBytesPerSec; tm.CompressedSpillBytes == 0 || tm.CPUSeconds != want {
					t.Errorf("intermediate merges of %d bytes charged %v s, want %v s",
						tm.CompressedSpillBytes, tm.CPUSeconds, want)
				}
				got := drain(t, newStreamMerger(merged))

				if len(got) != len(want) {
					t.Fatalf("fan-in merge emitted %d records, global merge %d", len(got), len(want))
				}
				for i := range want {
					if got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
						t.Fatalf("record %d: fan-in (%q, %q), global (%q, %q)",
							i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
					}
				}
			})
		}
	}
}

// TestSegWriterRoundTrip: a segment written as a merge pass writes it, a
// block at a time as each fills, holds exactly the bytes one whole-buffer
// framing of its encoding in DefaultBlockSize payloads would, and its
// metadata and records read back as written.
func TestSegWriterRoundTrip(t *testing.T) {
	codec := blockcodec.LZ{}
	sd := newSpillDir(t.TempDir(), nil)
	defer sd.cleanup()
	sf, err := sd.create("run-i-*")
	if err != nil {
		t.Fatal(err)
	}
	w := segWriter{codec: codec}
	w.start(sf)
	// Enough volume to force several mid-stream block flushes.
	var keys []string
	var vals [][]byte
	for i := 0; i < 12000; i++ {
		keys = append(keys, fmt.Sprintf("cuboid/ab/sku-%06d", i))
		vals = append(vals, bytes.Repeat([]byte{byte(i)}, i%40))
	}
	var wantRaw int64
	var enc []byte
	prev, writes := "", 0
	for i := range keys {
		w.add(keys[i], vals[i])
		if len(w.out) > 0 {
			writes++
		}
		if err := w.write(sf); err != nil {
			t.Fatal(err)
		}
		wantRaw += pairBytes(keys[i], vals[i])
		enc = appendSpillRecord(enc, prev, keys[i], vals[i])
		prev = keys[i]
	}
	seg := w.finish()
	if err := w.write(sf); err != nil {
		t.Fatal(err)
	}
	if writes < 2 {
		t.Fatalf("%d mid-stream block writes, want several", writes)
	}
	if seg.records != int64(len(keys)) || seg.raw != wantRaw || seg.enc != int64(len(enc)) {
		t.Fatalf("segment metadata: %d records/%d raw/%d enc, want %d/%d/%d",
			seg.records, seg.raw, seg.enc, len(keys), wantRaw, len(enc))
	}
	want, _ := blockcodec.AppendAll(nil, codec, enc, nil)
	got, err := os.ReadFile(sf.path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.length != sf.off || !bytes.Equal(got, want) {
		t.Fatalf("segment length %d, file offset %d: the file's %d bytes differ from the %d of one framing",
			seg.length, sf.off, len(got), len(want))
	}
	rd := newSegReader(seg)
	for i := range keys {
		k, v, ok, err := rd.next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if string(k) != keys[i] || !bytes.Equal(v, vals[i]) {
			t.Fatalf("record %d: got (%q, %x), want (%q, %x)", i, k, v, keys[i], vals[i])
		}
	}
	if _, _, ok, _ := rd.next(); ok {
		t.Fatal("segment over-reads past its record count")
	}
}

// TestFanInMergeAllocsPerPass: a reduce task's group merges share one
// merger and its segment readers, so a merge pass at fan-in 2 allocates a
// few objects for its output run, not a reader, a block reader and their
// buffers per source.
func TestFanInMergeAllocsPerPass(t *testing.T) {
	sd := newSpillDir(t.TempDir(), nil)
	defer sd.cleanup()
	codec := blockcodec.Raw{}
	r := &round{eng: New(Config{Workers: 1, MergeFanIn: 2}, dfs.New(false)), job: &Job{}, sd: sd, codec: codec}
	runs := fanInRuns(t, sd, codec, 32)
	var passes int64
	allocs := testing.AllocsPerRun(5, func() {
		var tm TaskMetrics
		if _, err := r.fanInMerge(new(streamMerger), runs, 0, &tm); err != nil {
			t.Fatal(err)
		}
		passes = tm.MergePasses
	})
	if passes != 30 {
		t.Fatalf("%d merge passes over 32 runs at fan-in 2, want 30", passes)
	}
	t.Logf("%.0f allocations per fan-in merge, %.1f per merge pass", allocs, allocs/float64(passes))
	if perPass := allocs / float64(passes); perPass > 6 {
		t.Errorf("%.1f allocations per merge pass, want at most 6", perPass)
	}
}
