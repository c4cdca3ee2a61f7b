package mr

import "unsafe"

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
// and tracing one merge-pass event per group merge. Every intermediate run
// appends to one run file, created on the first group merge: later passes
// read earlier runs back with ReadAt while appending at the end, so the
// task holds one file however many passes it makes. I/O errors are plain
// task failures — infrastructure, not injected faults, so not retryable.
func (r *round) fanInMerge(m *streamMerger, runs []streamSource, task int, tm *TaskMetrics) ([]streamSource, error) {
	fanIn := r.eng.Cfg.MergeFanIn
	var sf *spillFile
	w := segWriter{codec: r.codec} // its buffers serve every group merge, as m's readers do
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
			if sf == nil {
				var err error
				if sf, err = r.sd.create("run-i-*"); err != nil {
					return nil, err
				}
			}
			src, err := r.mergeRunGroup(m, sf, &w, runs[lo:hi], task, tm)
			if err != nil {
				return nil, err
			}
			next = append(next, src)
		}
		runs = next
	}
	return runs, nil
}

// mergeRunGroup merges one contiguous group of sources through m and w into
// a new run at the end of sf and returns it as a replacement source.
func (r *round) mergeRunGroup(m *streamMerger, sf *spillFile, w *segWriter, group []streamSource, task int, tm *TaskMetrics) (streamSource, error) {
	m.open(group)
	m.reset()
	w.start(sf)
	for rec, _ := m.next(); rec != nil; rec, _ = m.next() {
		w.add(rec.Key, rec.Val)
		if err := w.write(sf); err != nil {
			return streamSource{}, err
		}
	}
	if m.err != nil {
		return streamSource{}, m.err
	}
	seg := w.finish()
	if err := w.write(sf); err != nil {
		return streamSource{}, err
	}
	tm.MergePasses++
	tm.CompressedSpillBytes += seg.length
	tm.runIOBytes += 2 * seg.length // written, then read back
	r.tr.add(PhaseReduce, task, TraceEvent{
		Type: EvMergePass, Bytes: seg.length, Records: seg.records,
	})
	return streamSource{seg: &seg}, nil
}

// byteString views b as a string without copying; the result is only
// valid while b's contents are.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
