package mr

import (
	"bytes"
	"fmt"
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
	var enc, block []byte
	framed, segs, _ := encodeSpill([][]Pair{pairs}, codec, nil, &enc, &block)
	if err := sf.append(framed, segs); err != nil {
		t.Fatal(err)
	}
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
// same order — ties between runs included.
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
				r := &round{eng: New(Config{Workers: 4, MergeFanIn: fanIn}, dfs.New(false)), sd: sd, codec: codec}

				const nRuns = 17
				global := newStreamMerger(fanInRuns(t, sd, codec, nRuns), 0)
				want := drain(t, global)
				global.close()

				runs := fanInRuns(t, sd, codec, nRuns)
				var tm TaskMetrics
				merged, err := r.fanInMerge(runs, 0, &tm)
				if err != nil {
					t.Fatal(err)
				}
				if len(merged) > fanIn {
					t.Fatalf("fanInMerge left %d runs, cap is %d", len(merged), fanIn)
				}
				if tm.MergePasses == 0 {
					t.Fatal("expected intermediate merge passes")
				}
				if tm.CompressedSpillBytes == 0 || tm.CPUSeconds == 0 {
					t.Errorf("intermediate merges not charged: %d bytes, %v cpu",
						tm.CompressedSpillBytes, tm.CPUSeconds)
				}
				final := newStreamMerger(merged, 0)
				defer final.close()
				got := drain(t, final)

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

// TestSegWriterRoundTrip: segWriter's incremental block flushing must
// produce a segment whose contents and metadata match what a one-shot
// encodeSpill of the same records would have accounted.
func TestSegWriterRoundTrip(t *testing.T) {
	codec := blockcodec.LZ{}
	sd := newSpillDir(t.TempDir(), nil)
	defer sd.cleanup()
	sf, err := sd.create("run-i-*")
	if err != nil {
		t.Fatal(err)
	}
	w := newSegWriter(sf, codec)
	// Enough volume to force several mid-stream block flushes.
	var keys []string
	var vals [][]byte
	for i := 0; i < 4000; i++ {
		keys = append(keys, fmt.Sprintf("cuboid/ab/sku-%06d", i))
		vals = append(vals, bytes.Repeat([]byte{byte(i)}, i%40))
	}
	var wantRaw int64
	for i := range keys {
		if err := w.add(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
		wantRaw += pairBytes(keys[i], vals[i])
	}
	seg, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	if seg.records != int64(len(keys)) || seg.raw != wantRaw {
		t.Fatalf("segment metadata: %d records/%d raw, want %d/%d",
			seg.records, seg.raw, len(keys), wantRaw)
	}
	if seg.length != sf.off {
		t.Fatalf("segment length %d, file offset %d", seg.length, sf.off)
	}
	rd := newSegReader(*seg, 0, nil, nil)
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
