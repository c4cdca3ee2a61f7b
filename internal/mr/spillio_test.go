package mr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/relation"
)

// firstMapFileFault fails the k-th write of the first map-side run file the
// engine creates — at Parallelism 1, map task 0's first attempt — and
// passes every other file's writes through.
type firstMapFileFault struct {
	k     int64
	mu    sync.Mutex
	files int
}

func (s *firstMapFileFault) wrap(w io.Writer) io.Writer {
	f, ok := w.(*os.File)
	if !ok || !strings.HasPrefix(filepath.Base(f.Name()), "run-m-") {
		return w
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files++
	if s.files != 1 {
		return w
	}
	return &faultyWriter{s: &faultScript{failCall: s.k}, w: w}
}

// runFilePath matches a run file's path inside a spill error, which is
// random per run.
var runFilePath = regexp.MustCompile(`\S*/run-m-\d+`)

// stickyRun is what a map attempt's failed spill write leaves behind in the
// round: the recovery accounting and a digest of the whole trace stream
// (times zeroed, run-file paths elided).
type stickyRun struct {
	wasted, retries int64
	attempts        string // map tasks' then reduce tasks' Attempts
	events          int
	trace           string // SHA-256 of the JSON-encoded events
}

func runStickySpill(t *testing.T, k int64) (stickyRun, RoundMetrics) {
	t.Helper()
	tuples, _ := tuplesFromWords(spillWords()[:200])
	st := &SliceTracer{}
	cfg := Config{Workers: 4, Parallelism: 1,
		SpillBudgetBytes: 1, SpillDir: t.TempDir(), Tracer: st}
	if k > 0 {
		cfg.SpillWriteWrapper = (&firstMapFileFault{k: k}).wrap
	}
	res, err := New(cfg, dfs.New(false)).RunTuples(spillFaultJob(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	var attempts []string
	for _, tm := range append(append([]TaskMetrics(nil), m.Mappers...), m.Reducers...) {
		attempts = append(attempts, fmt.Sprint(tm.Attempts))
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, ev := range st.Events {
		ev.Time = time.Time{}
		ev.Err = runFilePath.ReplaceAllString(ev.Err, "run-m-*")
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return stickyRun{
		wasted: m.WastedBytes, retries: m.Retries, attempts: strings.Join(attempts, ","),
		events: len(st.Events), trace: hex.EncodeToString(h.Sum(nil)),
	}, m
}

// TestSpillWriteErrorSticky is the inline writer's error contract: a failed
// spill write is kept, later flushes of the attempt are still encoded and
// accounted but not written, and the attempt fails — and is retried — only
// when it ends. The goldens were recorded with the background writer the
// inline path replaced, so the recovery accounting and the whole trace
// stream are pinned to that writer's.
func TestSpillWriteErrorSticky(t *testing.T) {
	_, clean := runStickySpill(t, 0)
	last := clean.Mappers[0].Spills // map task 0 attempt 0's flush count
	for _, tc := range []struct {
		name string
		k    int64
		want stickyRun
	}{
		{"first", 1, stickyRun{750, 1, "2,1,1,1,1,1,1,1", 471,
			"03de3f712475628269cedb50e07921d2beb5fdc322ed025be8fc02fdb5f79af9"}},
		{"second", 2, stickyRun{750, 1, "2,1,1,1,1,1,1,1", 471,
			"ffb35c03e50a9e5d9095d450b6fae2191ad756d654f5f69b00dff867a18667e0"}},
		{"last", last, stickyRun{750, 1, "2,1,1,1,1,1,1,1", 471,
			"b69a689b8aad4e28680411f3b0f9219ae75f6c053ebd60c2f3147e540bcdd2ec"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := runStickySpill(t, tc.k)
			if got != tc.want {
				t.Errorf("k=%d: got %+v, want %+v", tc.k, got, tc.want)
			}
		})
	}
}

// TestReduceStartsNoGoroutines: a task attempt does its own spill I/O. A
// spilling round whose segments are large enough to have once been granted
// read-ahead goroutines runs its reducers on no goroutine but the caller's.
// Goroutines an earlier test left behind may still be exiting, so the count
// is read once it has settled, and may only fall from there.
func TestReduceStartsNoGoroutines(t *testing.T) {
	val := make([]byte, 1024)
	var tuples []relation.Tuple
	for i := 0; i < 2048; i++ {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{relation.Value(i)}})
	}
	before := settledGoroutines()
	during := -1
	job := &Job{
		Name:     "bigsegs",
		Reducers: 1,
		MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
			ctx.Emit(fmt.Sprintf("key-%06d", tp.Dims[0]), val)
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			if during < 0 {
				during = runtime.NumGoroutine()
			}
		},
	}
	eng := New(Config{Workers: 1, Parallelism: 1, SpillBudgetBytes: 512 << 10,
		SpillDir: t.TempDir()}, dfs.New(false))
	res, err := eng.RunTuples(job, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Spills < 2 || res.Metrics.CompressedSpillBytes/res.Metrics.Spills < 128<<10 {
		t.Fatalf("want several segments of >= 128 KiB, got %d spills of %d B in all",
			res.Metrics.Spills, res.Metrics.CompressedSpillBytes)
	}
	if during > before {
		t.Errorf("%d goroutines inside Reduce, %d before the run", during, before)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has read the same
// for 20 polls a millisecond apart, or after two seconds.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestFanInRunFilePerReducer is the fan-in merge's file-descriptor bound:
// spilling every record leaves each reducer hundreds of runs, far past
// MergeFanIn, yet a reduce task's intermediate runs all append to one file,
// so the spill directory never holds more than one run file per map task
// and one per reduce task — and every reducer sees exactly the input the
// in-memory run hands it.
func TestFanInRunFilePerReducer(t *testing.T) {
	tuples, _ := tuplesFromWords(spillWords())
	run := func(cfg Config) ([][]string, RoundMetrics) {
		inputs := make([][]string, 4)
		var mu sync.Mutex
		job := &Job{
			Name: "faninfiles",
			MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
				ctx.Emit(fmt.Sprintf("word-%c", 'a'+rune(tp.Dims[0])%26), binary.AppendVarint(nil, int64(tp.Dims[0])))
			},
			Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
				mu.Lock()
				defer mu.Unlock()
				inputs[ctx.Task] = append(inputs[ctx.Task], fmt.Sprintf("%s=%x", key, vals))
			},
		}
		cfg.Workers, cfg.Parallelism = 4, 2
		res, err := New(cfg, dfs.New(false)).RunTuples(job, tuples)
		if err != nil {
			t.Fatal(err)
		}
		return inputs, res.Metrics
	}
	want, _ := run(Config{})

	base := t.TempDir()
	var mu sync.Mutex
	peak := 0
	watch := func(w io.Writer) io.Writer {
		// Called as each run file is created: the directory's high-water mark.
		files, err := filepath.Glob(filepath.Join(base, "*", "*"))
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		peak = max(peak, len(files))
		mu.Unlock()
		return w
	}
	got, m := run(Config{SpillBudgetBytes: 1, SpillDir: base, SpillWriteWrapper: watch})
	if m.MergePasses == 0 {
		t.Fatal("budget 1 made no intermediate merge")
	}
	if peak > 4+4 {
		t.Errorf("spill directory held %d run files; want at most one per map and reduce task (8)", peak)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("reducer input differs from the in-memory run's")
	}
	if leaked := listAll(t, base); len(leaked) != 0 {
		t.Errorf("leaked spill files: %v", leaked)
	}
}

// captureWrites records every write to every run file, in file-creation
// order, as the length-prefixed bytes of each write call.
type captureWrites struct {
	mu    sync.Mutex
	files []*recordedFile
}

type recordedFile struct {
	w     io.Writer
	calls [][]byte
}

func (r *recordedFile) Write(p []byte) (int, error) {
	r.calls = append(r.calls, append([]byte(nil), p...))
	return r.w.Write(p)
}

func (c *captureWrites) wrap(w io.Writer) io.Writer {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := &recordedFile{w: w}
	c.files = append(c.files, f)
	return f
}

// digest hashes every file's write calls, each call's length first, so
// that a change in where one write ends and the next begins shows too.
func (c *captureWrites) digest() string {
	h := sha256.New()
	for i, f := range c.files {
		fmt.Fprintf(h, "file %d: %d calls\n", i, len(f.calls))
		for _, p := range f.calls {
			fmt.Fprintf(h, "%d\n", len(p))
			h.Write(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunFileBytesPinned pins the bytes, and the write calls, of map-side
// run files whose buckets span several 64 KiB blocks, under both codecs:
// a change to how a flush is front-coded, framed or written shows here.
// The round makes no merge pass, so only map flushes write.
func TestRunFileBytesPinned(t *testing.T) {
	var tuples []relation.Tuple
	for i := 0; i < 4000; i++ {
		tuples = append(tuples, relation.Tuple{Dims: []relation.Value{relation.Value(i)}})
	}
	job := &Job{
		Name:     "pinned",
		Reducers: 2,
		MapTuple: func(ctx *MapCtx, tp relation.Tuple) {
			i := int(tp.Dims[0])
			val := make([]byte, 100+i%300)
			for j := range val {
				val[j] = byte((i*7 + j*j*j) % 251)
			}
			ctx.Emit(fmt.Sprintf("cuboid-%d/key-%06d", i%5, i*37%4000), val)
		},
		Reduce: func(ctx *RedCtx, key string, vals [][]byte) {
			ctx.EmitKV(key, vals[0])
		},
	}
	for _, tc := range []struct{ codec, want string }{
		{"raw", "92fda685319789e4171f3515d67eccc348a005820bc05df5ce5f73afa2600e4b"},
		{"lz", "dc5890a851108f768d8f854283a131ff7882ae3d3ac1b412ebb2897605427edf"},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			capt := &captureWrites{}
			eng := New(Config{Workers: 2, Parallelism: 1, SpillBudgetBytes: 200 << 10,
				SpillCodec: tc.codec, SpillDir: t.TempDir(), SpillWriteWrapper: capt.wrap}, dfs.New(false))
			res, err := eng.RunTuples(job, tuples)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.MergePasses != 0 || m.Spills < 2 || m.SpillBytes/m.Spills/2 <= 64<<10 {
				t.Fatalf("want several flushes of buckets over 64 KiB and no merge pass, got %d spills of %d B, %d merge passes",
					m.Spills, m.SpillBytes, m.MergePasses)
			}
			if got := capt.digest(); got != tc.want {
				t.Errorf("run-file writes digest %s, want %s", got, tc.want)
			}
		})
	}
}
