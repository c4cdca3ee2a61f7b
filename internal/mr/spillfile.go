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
// once, after all task attempts have finished (and, per the spill-writer
// contract, after every attempt has joined its background writer).
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

// spillFile is one attempt's on-disk run file. A map attempt appends one
// spill block per flush — the sorted per-reducer buckets of everything
// emitted since the previous flush, each bucket front-coded and framed into
// checksummed blockcodec blocks as its own segment. spills[i][r] is flush
// i's segment for reducer r.
//
// Writes go through append, which is single-writer by contract: the
// attempt's one background spillWriter goroutine. Readers use ReadAt and
// never touch the write offset.
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
	f       *os.File
	off     int64
	length  int64
	records int64
	raw     int64
	enc     int64
	codec   blockcodec.Codec
}

// encodeSpill front-codes the sorted buckets (one per reducer) and frames
// each bucket's encoding into checksummed blocks, producing one flush's
// complete file image. Segment offsets are flush-relative; append fixes
// them up against the file's write offset. framed is the flush image
// buffer (reused flush to flush); enc and block are front-coding and
// codec scratch. encBytes is the pre-compression front-coded total.
func encodeSpill(buckets [][]Pair, codec blockcodec.Codec, framed []byte, enc, block *[]byte) (out []byte, segs []spillSeg, encBytes int64) {
	out = framed[:0]
	segs = make([]spillSeg, len(buckets))
	for r, bucket := range buckets {
		start := int64(len(out))
		e := (*enc)[:0]
		prev := ""
		var raw int64
		for i := range bucket {
			e = appendSpillRecord(e, prev, bucket[i].Key, bucket[i].Val)
			raw += pairBytes(bucket[i].Key, bucket[i].Val)
			prev = bucket[i].Key
		}
		*enc = e
		out, *block = blockcodec.AppendAll(out, codec, e, *block)
		segs[r] = spillSeg{
			off:     start,
			length:  int64(len(out)) - start,
			records: int64(len(bucket)),
			raw:     raw,
			enc:     int64(len(e)),
			codec:   codec,
		}
		encBytes += int64(len(e))
	}
	return out, segs, encBytes
}

// append writes one encoded flush image and records its segments, fixing
// their flush-relative offsets up to file offsets. Single-writer only.
func (w *spillFile) append(framed []byte, segs []spillSeg) error {
	for i := range segs {
		segs[i].f = w.f
		segs[i].off += w.off
	}
	if err := w.write(framed); err != nil {
		return err
	}
	w.spills = append(w.spills, segs)
	return nil
}

// writeRaw appends already-framed bytes without recording segments
// (reduce-side external-aggregation runs, which are written for their I/O
// cost but never merged back).
func (w *spillFile) writeRaw(buf []byte) error {
	return w.write(buf)
}

func (w *spillFile) close() {
	if w == nil || w.closed {
		return
	}
	w.f.Close()
	w.closed = true
}

// discard closes and deletes the run file: the attempt that produced it
// failed, was killed, lost a speculative race, or sat on a crashed node.
// Only legal after the attempt's background writer (if any) has joined.
func (w *spillFile) discard() {
	if w == nil || w.closed {
		return
	}
	w.f.Close()
	os.Remove(w.path)
	w.closed = true
}

// segReader streams one segment's records: a section of the run file,
// optionally read ahead by a background prefetcher, decoded block by block
// (CRC-verified), then record by record. reset reopens the segment from
// the start, so a retried reduce attempt re-reads its input exactly like a
// real reducer re-fetching a map output; concurrent readers of different
// segments share the *os.File safely via ReadAt. A segReader with a
// prefetcher owns a goroutine — close releases it (idempotent; reset
// restarts it).
type segReader struct {
	seg      spillSeg
	prefetch *prefetchReader // nil when the segment is too small to bother
	blocks   *blockcodec.Reader
	rr       *recordReader
}

// newSegReader opens a segment. prefetchBudget is the read-ahead byte
// budget the caller grants this segment (0 disables read-ahead); hits and
// misses, when non-nil, receive the prefetcher's counters.
func newSegReader(seg spillSeg, prefetchBudget int64, hits, misses *int64) *segReader {
	r := &segReader{seg: seg}
	if prefetchBudget >= 2*prefetchChunkSize && seg.length >= 2*prefetchChunkSize {
		r.prefetch = newPrefetchReader(seg.f, seg.off, seg.length, hits, misses)
	}
	r.reset()
	return r
}

func (r *segReader) reset() {
	var src io.Reader
	if r.prefetch != nil {
		r.prefetch.reset()
		src = r.prefetch
	} else {
		src = io.NewSectionReader(r.seg.f, r.seg.off, r.seg.length)
	}
	if r.blocks == nil {
		r.blocks = blockcodec.NewReader(src, r.seg.codec)
	} else {
		r.blocks.Reset(src)
	}
	sz := 16 * 1024
	if r.seg.enc < int64(sz) {
		sz = int(r.seg.enc)
	}
	if sz < 16 {
		sz = 16
	}
	r.rr = newRecordReader(r.blocks, r.seg.records, sz)
}

func (r *segReader) next() (key, val []byte, ok bool, err error) {
	return r.rr.next()
}

// close stops the segment's prefetch goroutine, if any. The segReader may
// be reset and reused afterwards.
func (r *segReader) close() {
	if r.prefetch != nil {
		r.prefetch.stop()
	}
}
