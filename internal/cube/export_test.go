package cube

import "testing"

// SetRenderRangeRows lowers WriteCSV's range size for one test, so that small
// runs are cut into many ranges.
func SetRenderRangeRows(t testing.TB, rows int) {
	old := renderRangeRows
	renderRangeRows = rows
	t.Cleanup(func() { renderRangeRows = old })
}

// BlockRecords is how many records a segment's block stands for.
const BlockRecords = blockRecords

// IndexShape returns, per segment of the run, its file's record count, how
// many blocks index it and how many spans of the run's directory are its.
func IndexShape(r *SortedRun) (records, blocks, spans []int) {
	records, blocks, spans = make([]int, len(r.segs)), make([]int, len(r.segs)), make([]int, len(r.segs))
	for s, seg := range r.segs {
		records[s], blocks[s] = seg.records, len(seg.blocks)
	}
	for _, sp := range r.spans {
		spans[sp.seg]++
	}
	return records, blocks, spans
}
