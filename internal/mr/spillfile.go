package mr

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// spillIOError marks a spill-plane I/O failure — a full disk, a write
// error, a short write — as distinct from both injected faults and
// deterministic job errors. The engine treats it as retryable: the failed
// attempt dies cleanly (its run file is discarded, nothing truncated
// survives) and the retry is re-placed, where a different node's disk may
// be healthy. Persistent failures exhaust MaxAttempts and fail the round
// plainly.
type spillIOError struct {
	err error
}

func (e *spillIOError) Error() string { return "spill write: " + e.err.Error() }
func (e *spillIOError) Unwrap() error { return e.err }

// isSpillIOError reports whether err is a spill-plane I/O failure.
func isSpillIOError(err error) bool {
	var se *spillIOError
	return errors.As(err, &se)
}

// spillDir owns one engine run's spill directory. The directory is created
// lazily on the first spill (a run whose buckets all fit in memory never
// touches the filesystem) and removed wholesale — open handles included —
// by cleanup, which the engine defers for the whole run so that no code
// path, fault-recovery ones included, can leak run files. The base
// directory is Config.SpillDir, or the operating system's temp dir (which
// honors $TMPDIR) when unset.
type spillDir struct {
	base string // Config.SpillDir, or os.TempDir() when empty
	wrap func(io.Writer) io.Writer

	mu    sync.Mutex
	dir   string
	files []*spillFile
}

// newSpillDir builds the run's spill directory handle. wrap, when non-nil,
// decorates every run file's writer (Config.SpillWriteWrapper) — the
// disk-full/short-write injection point for tests.
func newSpillDir(base string, wrap func(io.Writer) io.Writer) *spillDir {
	if base == "" {
		base = os.TempDir()
	}
	return &spillDir{base: base, wrap: wrap}
}

// create opens a fresh run file inside the (lazily created) spill
// directory. Safe to call from concurrent task attempts. Creation failures
// (the directory or file itself — e.g. a full disk failing MkdirTemp) are
// spill I/O errors like write failures.
func (d *spillDir) create(pattern string) (*spillFile, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dir == "" {
		dir, err := os.MkdirTemp(d.base, "spcube-spill-*")
		if err != nil {
			return nil, &spillIOError{err: err}
		}
		d.dir = dir
	}
	f, err := os.CreateTemp(d.dir, pattern)
	if err != nil {
		return nil, &spillIOError{err: err}
	}
	sf := &spillFile{f: f, w: io.Writer(f), path: f.Name()}
	if d.wrap != nil {
		sf.w = d.wrap(f)
	}
	d.files = append(d.files, sf)
	return sf, nil
}

// cleanup closes every run file and removes the spill directory. Called
// once, after all task attempts have finished.
func (d *spillDir) cleanup() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sf := range d.files {
		sf.close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
	d.files = nil
}

// spillFile is one task's on-disk run file. A map attempt appends one
// spill block per flush — the sorted per-reducer buckets of everything
// emitted since the previous flush, each bucket front-coded and framed into
// checksummed blockcodec blocks as its own segment. spills[i][r] is flush
// i's segment for reducer r. A reduce task's fan-in merges append their
// intermediate runs to one file the same way.
//
// The task that created the file is its only writer. Readers use ReadAt
// and never touch the write offset, so a merge may read earlier segments
// while appending at the end.
type spillFile struct {
	f      *os.File
	w      io.Writer // write target: f, or the injection wrapper around it
	path   string
	off    int64
	spills [][]spillSeg
	closed bool
}

// write appends buf through the (possibly wrapped) writer, converting
// errors and silent short writes into spill I/O errors. A short write
// must never pass silently: a truncated frame would surface later as a
// block-checksum failure in a reducer, far from the cause.
func (w *spillFile) write(buf []byte) error {
	n, err := w.w.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return &spillIOError{err: fmt.Errorf("%s at offset %d: %w", w.path, w.off+int64(n), err)}
	}
	w.off += int64(len(buf))
	return nil
}

// spillSeg locates one sorted run inside a spill file and carries the
// metadata the reduce pre-scan needs, so sizing a reducer's input never
// re-reads the file: records and raw (the Σ pairBytes the in-memory path
// would have accounted) mirror the heap-resident bookkeeping exactly;
// enc is the front-coded byte count before block compression (the
// SpillBytes accounting unit), and length the framed, compressed bytes
// actually on disk (the I/O-cost unit). codec decodes the blocks back.
type spillSeg struct {
	f       io.ReaderAt
	off     int64
	length  int64
	records int64
	raw     int64
	enc     int64
	codec   blockcodec.Codec
}

func (w *spillFile) close() {
	if w == nil || w.closed {
		return
	}
	w.f.Close()
	w.closed = true
}

// discard closes and deletes the run file: the attempt that produced it
// failed, was killed, or sat on a crashed node.
func (w *spillFile) discard() {
	if w == nil || w.closed {
		return
	}
	w.f.Close()
	os.Remove(w.path)
	w.closed = true
}
