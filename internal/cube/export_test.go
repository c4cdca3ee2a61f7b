package cube

import "testing"

// SetRenderRangeRows lowers WriteCSV's range size for one test, so that small
// runs are cut into many ranges.
func SetRenderRangeRows(t testing.TB, rows int) {
	old := renderRangeRows
	renderRangeRows = rows
	t.Cleanup(func() { renderRangeRows = old })
}
