package mr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// writeSpillSync encodes one flush of sorted buckets through codec and
// writes it, as a map attempt's spill flush does: the records are copied into
// an arena and encoded through their rows.
func writeSpillSync(t *testing.T, sf *spillFile, buckets [][]Pair, codec blockcodec.Codec) (written, encBytes int64) {
	t.Helper()
	var a arena
	rows := make([][]IndexRow, len(buckets))
	for r, bucket := range buckets {
		for _, p := range bucket {
			rows[r] = append(rows[r], a.record(p.Key, p.Val))
		}
	}
	w := segWriter{codec: codec}
	encBytes = w.encodeFlush(sf, rows, a.used())
	written = int64(len(w.out))
	if err := w.write(sf); err != nil {
		t.Fatal(err)
	}
	return written, encBytes
}

// listAll returns every file under dir, recursively.
func listAll(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if path != dir {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func testBuckets() [][]Pair {
	return [][]Pair{
		{{Key: "apple", Val: []byte("1")}, {Key: "apricot", Val: []byte("22")}},
		{}, // empty bucket: zero-length segment
		{{Key: "banana", Val: nil}, {Key: "banana", Val: []byte("x")}, {Key: "band", Val: []byte("yz")}},
	}
}

// TestWriteSpillExactBytes is the spill-accounting regression (the engine
// once estimated spill volume at a hardcoded 24 bytes/record): the framed
// byte count the encoder reports — the number CompressedSpillBytes is
// built from — must equal the bytes physically on disk, and the segment
// metadata must mirror the in-memory accounting exactly. Runs under every
// codec.
func TestWriteSpillExactBytes(t *testing.T) {
	for _, name := range blockcodec.Names() {
		t.Run(name, func(t *testing.T) {
			codec, err := blockcodec.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sd := newSpillDir(t.TempDir(), nil)
			defer sd.cleanup()
			sf, err := sd.create("run-m-*")
			if err != nil {
				t.Fatal(err)
			}
			buckets := testBuckets()
			var total int64
			for flush := 0; flush < 3; flush++ {
				written, encBytes := writeSpillSync(t, sf, buckets, codec)
				if written <= 0 || encBytes <= 0 {
					t.Fatalf("flush %d: written = %d, encBytes = %d", flush, written, encBytes)
				}
				total += written
				st, err := os.Stat(sf.path)
				if err != nil {
					t.Fatal(err)
				}
				if st.Size() != total {
					t.Fatalf("flush %d: reported %d cumulative bytes, file holds %d", flush, total, st.Size())
				}
			}
			for flush, segs := range sf.spills {
				var segSum int64
				for r, seg := range segs {
					segSum += seg.length
					want := buckets[r]
					if seg.records != int64(len(want)) {
						t.Fatalf("flush %d reducer %d: %d records, want %d", flush, r, seg.records, len(want))
					}
					var raw int64
					for i := range want {
						raw += pairBytes(want[i].Key, want[i].Val)
					}
					if seg.raw != raw {
						t.Fatalf("flush %d reducer %d: raw %d, want %d", flush, r, seg.raw, raw)
					}
					rd := newSegReader(seg)
					for i := range want {
						k, v, ok, err := rd.next()
						if err != nil || !ok {
							t.Fatalf("flush %d reducer %d record %d: ok=%v err=%v", flush, r, i, ok, err)
						}
						if string(k) != want[i].Key || !bytes.Equal(v, want[i].Val) {
							t.Fatalf("flush %d reducer %d record %d: got (%q, %q), want (%q, %q)",
								flush, r, i, k, v, want[i].Key, want[i].Val)
						}
					}
					if _, _, ok, _ := rd.next(); ok {
						t.Fatalf("flush %d reducer %d: segment over-reads", flush, r)
					}
					// A reset re-reads the segment from the start (retried attempt).
					rd.reset()
					if k, _, ok, err := rd.next(); len(want) > 0 && (err != nil || !ok || string(k) != want[0].Key) {
						t.Fatalf("flush %d reducer %d: reset re-read failed: %q %v %v", flush, r, k, ok, err)
					}
				}
				// Segment lengths tile the flush exactly: no gaps, no overlap.
				if segSum*3 != total {
					t.Fatalf("flush %d: segment lengths sum to %d, flush wrote %d", flush, segSum, total/3)
				}
			}
		})
	}
}

func TestSpillDirCleanupRemovesEverything(t *testing.T) {
	base := t.TempDir()
	sd := newSpillDir(base, nil)
	for i := 0; i < 4; i++ {
		sf, err := sd.create(fmt.Sprintf("run-%d-*", i))
		if err != nil {
			t.Fatal(err)
		}
		writeSpillSync(t, sf, testBuckets(), blockcodec.Raw{})
	}
	if got := listAll(t, base); len(got) == 0 {
		t.Fatal("expected run files before cleanup")
	}
	sd.cleanup()
	if got := listAll(t, base); len(got) != 0 {
		t.Fatalf("cleanup left files behind: %v", got)
	}
	// cleanup is idempotent.
	sd.cleanup()
}

func TestSpillFileDiscard(t *testing.T) {
	base := t.TempDir()
	sd := newSpillDir(base, nil)
	defer sd.cleanup()
	sf, err := sd.create("run-m-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	sf.discard()
	if _, err := os.Stat(sf.path); !os.IsNotExist(err) {
		t.Fatalf("discard left the file: %v", err)
	}
	sf.discard() // idempotent
	var nilFile *spillFile
	nilFile.discard() // nil-safe: failed attempts may never have spilled
	nilFile.close()
}

// TestSpillDirHonorsTMPDIR: with Config.SpillDir unset the run files must
// land under $TMPDIR (via os.TempDir), not a hardcoded /tmp — operators
// point TMPDIR at the scratch disk that can actually hold a shuffle.
func TestSpillDirHonorsTMPDIR(t *testing.T) {
	base := t.TempDir()
	t.Setenv("TMPDIR", base)
	sd := newSpillDir("", nil)
	defer sd.cleanup()
	sf, err := sd.create("run-m-*")
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := filepath.Rel(base, sf.path); err != nil || strings.HasPrefix(rel, "..") {
		t.Errorf("spill file %q is outside TMPDIR %q", sf.path, base)
	}
}

func TestSpillDirLazyCreation(t *testing.T) {
	base := t.TempDir()
	sd := newSpillDir(base, nil)
	sd.cleanup() // no create call: nothing must have touched base
	if got := listAll(t, base); len(got) != 0 {
		t.Fatalf("spillDir touched the filesystem without a spill: %v", got)
	}
}
