package mr

import (
	"unsafe"

	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// This file implements multi-pass fan-in control for the reduce-side
// streaming merge — the io.sort.factor half of the spill pipeline. A
// reduce task facing more live runs than Config.MergeFanIn (tiny spill
// budgets can produce hundreds) merges contiguous groups of MergeFanIn
// runs into intermediate on-disk runs, repeating until at most MergeFanIn
// remain, and only then opens its final streaming merge.
//
// Order contract: groups are contiguous and replaced in position, and the
// in-group merge breaks key ties by the lower source index — so the merged
// run holds exactly the records a single global merge would have emitted
// from those sources, in the same order, and the final merge's
// lower-index tiebreak over group runs reproduces the global
// lower-source-index tiebreak. Reducer input is byte-identical at any
// fan-in.

// defaultMergeFanIn is the run-count cap when Config.MergeFanIn is 0 —
// the same default as Hadoop's io.sort.factor ballpark. New resolves it.
const defaultMergeFanIn = 64

// fanInMerge reduces runs to at most Config.MergeFanIn sources by repeated
// passes of contiguous group merges, charging tm for the extra I/O (each
// merged byte is written once and read back once; the first read of the
// source segments was already charged when the reducer's input was sized)
// and tracing one merge-pass event per group merge. I/O errors are plain
// task failures — infrastructure, not injected faults, so not retryable.
func (r *round) fanInMerge(runs []streamSource, task int, tm *TaskMetrics) ([]streamSource, error) {
	fanIn := r.eng.Cfg.MergeFanIn
	for len(runs) > fanIn {
		next := make([]streamSource, 0, (len(runs)+fanIn-1)/fanIn)
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			if hi-lo == 1 {
				// A lone trailing run needs no merge; carrying it over
				// keeps its position, and with it the order contract.
				next = append(next, runs[lo])
				continue
			}
			src, err := r.mergeRunGroup(runs[lo:hi], task, tm)
			if err != nil {
				return nil, err
			}
			next = append(next, src)
		}
		runs = next
	}
	return runs, nil
}

// mergeRunGroup merges one contiguous group of sources into a fresh
// on-disk run and returns it as a replacement source.
func (r *round) mergeRunGroup(group []streamSource, task int, tm *TaskMetrics) (streamSource, error) {
	m := newStreamMerger(group, 0)
	defer m.close()
	sf, err := r.sd.create("run-i-*")
	if err != nil {
		return streamSource{}, err
	}
	w := newSegWriter(sf, r.codec)
	for rec, _ := m.next(); rec != nil; rec, _ = m.next() {
		if err := w.add(rec.Key, rec.Val); err != nil {
			return streamSource{}, err
		}
	}
	if m.err != nil {
		return streamSource{}, m.err
	}
	seg, err := w.finish()
	if err != nil {
		return streamSource{}, err
	}
	tm.MergePasses++
	tm.CompressedSpillBytes += seg.length
	tm.CPUSeconds += 2 * float64(seg.length) / r.eng.Cfg.Cost.DiskBytesPerSec
	r.tr.add(PhaseReduce, task, TraceEvent{
		Type: EvMergePass, Bytes: seg.length, Records: seg.records,
	})
	return streamSource{seg: seg}, nil
}

// segWriter streams records into one front-coded, block-framed segment,
// flushing framed blocks to the file as the encoding buffer fills — a
// merged run can exceed memory, so nothing buffers the whole segment.
type segWriter struct {
	sf     *spillFile
	codec  blockcodec.Codec
	seg    spillSeg
	enc    []byte // pending front-coded bytes, framed once a block fills
	framed []byte
	block  []byte
	prev   []byte // previous key (owned copy; merge buffers are reused)
}

func newSegWriter(sf *spillFile, codec blockcodec.Codec) *segWriter {
	return &segWriter{
		sf:    sf,
		codec: codec,
		seg:   spillSeg{f: sf.f, codec: codec},
	}
}

// add appends one record. key and val need only stay valid for the call.
func (w *segWriter) add(key string, val []byte) error {
	w.enc = appendSpillRecord(w.enc, byteString(w.prev), key, val)
	w.seg.records++
	w.seg.raw += int64(len(key)+len(val)) + RecordOverhead
	w.prev = append(w.prev[:0], key...)
	if len(w.enc) >= blockcodec.DefaultBlockSize {
		return w.flush()
	}
	return nil
}

// flush frames the pending encoding into blocks and writes them out.
func (w *segWriter) flush() error {
	w.seg.enc += int64(len(w.enc))
	w.framed, w.block = blockcodec.AppendAll(w.framed[:0], w.codec, w.enc, w.block)
	w.seg.length += int64(len(w.framed))
	w.enc = w.enc[:0]
	return w.sf.writeRaw(w.framed)
}

// finish flushes the tail and returns the completed segment (offset 0:
// each merged run owns its file).
func (w *segWriter) finish() (*spillSeg, error) {
	if len(w.enc) > 0 {
		if err := w.flush(); err != nil {
			return nil, err
		}
	}
	seg := w.seg
	return &seg, nil
}

// byteString views b as a string without copying; the result is only
// valid while b's contents are.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
