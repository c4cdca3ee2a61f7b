package mr

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// submitFlush encodes one flush of buckets and pushes it through the writer
// the way the map foreground does: acquire a buffer, encode into it, submit.
func submitFlush(t *testing.T, w *spillWriter, buckets [][]Pair, codec blockcodec.Codec) {
	t.Helper()
	b, _ := w.acquire()
	var enc, block []byte
	b.framed, b.segs, _ = encodeSpill(buckets, codec, b.framed, &enc, &block)
	w.submit(b)
}

// TestSpillWriterAsyncMatchesSync: the background double-buffered writer
// must leave exactly the file and segment metadata that appending each flush
// inline does — overlap changes timing, never bytes.
func TestSpillWriterAsyncMatchesSync(t *testing.T) {
	for _, codecName := range blockcodec.Names() {
		t.Run(codecName, func(t *testing.T) {
			codec, err := blockcodec.ByName(codecName)
			if err != nil {
				t.Fatal(err)
			}
			sd := newSpillDir(t.TempDir(), nil)
			defer sd.cleanup()
			var files [2]*spillFile // inline reference, background writer
			for i := range files {
				if files[i], err = sd.create("run-m-*"); err != nil {
					t.Fatal(err)
				}
			}
			w := newSpillWriter(files[1])
			for flush := 0; flush < 5; flush++ {
				writeSpillSync(t, files[0], testBuckets(), codec)
				submitFlush(t, w, testBuckets(), codec)
			}
			if err, _ := w.join(); err != nil {
				t.Fatal(err)
			}
			syncBytes, err := os.ReadFile(files[0].path)
			if err != nil {
				t.Fatal(err)
			}
			asyncBytes, err := os.ReadFile(files[1].path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(syncBytes, asyncBytes) {
				t.Errorf("async writer file (%d bytes) differs from sync writer file (%d bytes)",
					len(asyncBytes), len(syncBytes))
			}
			if len(files[0].spills) != len(files[1].spills) {
				t.Fatalf("flush counts differ: sync %d, async %d", len(files[0].spills), len(files[1].spills))
			}
			for i := range files[0].spills {
				for r := range files[0].spills[i] {
					s, a := files[0].spills[i][r], files[1].spills[i][r]
					s.f, a.f = nil, nil
					s.codec, a.codec = nil, nil
					if s != a {
						t.Errorf("flush %d reducer %d: segment metadata differs: sync %+v, async %+v", i, r, s, a)
					}
				}
			}
		})
	}
}

// TestSpillWriterErrorPropagation: a failed background append must surface
// at join, later submits must not wedge the double buffer, and join must
// stay idempotent, reporting the same first error every time.
func TestSpillWriterErrorPropagation(t *testing.T) {
	sd := newSpillDir(t.TempDir(), nil)
	defer sd.cleanup()
	sf, err := sd.create("run-m-*")
	if err != nil {
		t.Fatal(err)
	}
	sf.f.Close() // every subsequent append fails
	w := newSpillWriter(sf)
	// More submissions than buffers: acquire must keep being served even
	// though the writer is in its error state.
	for flush := 0; flush < 6; flush++ {
		submitFlush(t, w, testBuckets(), blockcodec.Raw{})
	}
	firstErr, _ := w.join()
	if firstErr == nil {
		t.Fatal("join returned nil after failed appends")
	}
	again, blocked := w.join()
	if again != firstErr {
		t.Errorf("second join returned %v, want the first error %v", again, firstErr)
	}
	if blocked != 0 {
		t.Errorf("idempotent join reported %v blocked time", blocked)
	}
	sf.closed = true // already closed by hand; keep cleanup quiet
}

// TestSpillWriterNoGoroutineLeak: every async writer's goroutine must exit
// at join — the engine joins on success, failure, kill and lost speculation
// alike, so a leak here would grow with every spilling attempt.
func TestSpillWriterNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	sd := newSpillDir(t.TempDir(), nil)
	defer sd.cleanup()
	for i := 0; i < 100; i++ {
		sf, err := sd.create("run-m-*")
		if err != nil {
			t.Fatal(err)
		}
		w := newSpillWriter(sf)
		submitFlush(t, w, testBuckets(), blockcodec.Raw{})
		if err, _ := w.join(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 100 writer join cycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
