package cube

import (
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// renderRangeRows is about how many rows WriteCSV renders into one chunk: a
// megabyte or two of CSV, so the writer sees a few dozen large writes, and
// enough ranges that every goroutine has work until the end. It is a variable
// so that a test can lower it.
var renderRangeRows = 32 << 10

// ranges cuts the run into contiguous key ranges of about renderRangeRows
// rows: ranges()[k][s] is where range k starts in segment s, and the last
// entry is the segments' lengths. The splitter keys are rows of the largest
// segment, evenly spaced, and every segment is cut at its first key not below
// the splitter, so a key that several segments hold — of which the last
// segment's record stands — lies in one range with all its records. Ranges
// come out even when the segments are spread alike over the key space, as
// reducers' files are (keys lead with their values' low bits); where they are
// not, that costs balance and nothing else.
func (r *SortedRun) ranges() [][]int {
	total, largest := 0, []row(nil)
	for _, seg := range r.segs {
		if total += len(seg); len(seg) > len(largest) {
			largest = seg
		}
	}
	n := max(1, (total+renderRangeRows-1)/renderRangeRows)
	cuts := make([][]int, n+1)
	cuts[0] = make([]int, len(r.segs))
	for k := 1; k <= n; k++ {
		cuts[k] = make([]int, len(r.segs))
		for s, seg := range r.segs {
			cuts[k][s] = len(seg)
			if k < n {
				w := largest[k*len(largest)/n]
				cuts[k][s] = r.files.lowerBound(seg, cuts[k-1][s], len(seg), probe{r.files.key(w), w.prefix})
			}
		}
	}
	return cuts
}

// appendRange appends the CSV rows of the range between two cuts to buf and
// returns it with their number.
func (r *SortedRun) appendRange(buf []byte, from, to []int, rel *relation.Relation) ([]byte, int) {
	parts := make([][]row, len(r.segs))
	for s, seg := range r.segs {
		parts[s] = seg[from[s]:to[s]]
	}
	// Counts and sums repeat from group to group: format a value once per
	// streak.
	var last uint64
	var text []byte
	var packed []relation.Value
	rows := 0
	for m := newMerger(r.files, parts); ; rows++ {
		w, ok := m.next()
		if !ok {
			return buf, rows
		}
		var mask uint32
		mask, packed, _, _ = relation.ScanGroupKeyInto(packed, r.files.key(w)) // indexFile parsed this key already
		j := 0
		for i := 0; i < r.d; i++ {
			if lattice.Mask(mask).Has(i) {
				buf = append(rel.AppendDimCSV(buf, i, packed[j]), ',')
				j++
			} else {
				buf = append(buf, '*', ',')
			}
		}
		value := r.files.value(w)
		if bits := math.Float64bits(value); bits != last || text == nil {
			last, text = bits, strconv.AppendFloat(text[:0], value, 'g', -1, 64)
		}
		buf = append(append(buf, text...), '\n')
	}
}

// WriteCSV renders the cube as CSV, as encoding/csv would write it: a header
// of rel's dimension names plus valueName, then one row per group in
// ascending group-key order — a value per dimension, "*" where the dimension
// is aggregated away, and the aggregate in its shortest exact decimal form.
// It is the one cube writer behind spcube's plain and -delta modes.
//
// The run is cut into key ranges that as many goroutines as the job had
// render into chunks, written in range order, a bounded number in flight.
func (r *SortedRun) WriteCSV(w io.Writer, rel *relation.Relation, valueName string) error {
	var head []byte
	for _, name := range rel.Schema.DimNames {
		head = append(relation.AppendCSVField(head, name), ',')
	}
	if _, err := w.Write(append(relation.AppendCSVField(head, valueName), '\n')); err != nil {
		return err
	}
	cuts := r.ranges()
	n, rows := len(cuts)-1, 0
	workers := min(r.par, n)
	if workers <= 1 {
		var buf []byte
		for k := 0; k < n; k++ {
			var m int
			buf, m = r.appendRange(buf[:0], cuts[k], cuts[k+1], rel)
			if _, err := w.Write(buf); err != nil {
				return err
			}
			rows += m
		}
		r.counted(rows)
		return nil
	}

	// Range k is rendered into chunk k mod len(chunks), and queued once range
	// k - len(chunks) is written: one chunk per worker being filled and two
	// ahead of the writer.
	type chunk struct {
		buf   []byte
		rows  int
		ready chan struct{} // signals that a range has been rendered into buf
	}
	type task struct {
		k    int
		into *chunk
	}
	chunks := make([]chunk, workers+2)
	for i := range chunks {
		chunks[i].ready = make(chan struct{}, 1)
	}
	tasks := make(chan task, len(chunks)) // never more queued than chunks: no send blocks
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				if failed.Load() {
					continue // nobody waits for this range
				}
				c := t.into
				c.buf, c.rows = r.appendRange(c.buf[:0], cuts[t.k], cuts[t.k+1], rel)
				c.ready <- struct{}{}
			}
		}()
	}
	var err error
	for next, k := 0, 0; k < n && err == nil; k++ {
		for ; next < n && next < k+len(chunks); next++ {
			tasks <- task{next, &chunks[next%len(chunks)]}
		}
		c := &chunks[k%len(chunks)]
		<-c.ready
		rows += c.rows
		_, err = w.Write(c.buf)
	}
	failed.Store(err != nil)
	close(tasks)
	wg.Wait()
	if err == nil {
		r.counted(rows)
	}
	return err
}

// counted records the number of groups a full pass found, for Len.
func (r *SortedRun) counted(n int) { r.count.Do(func() { r.n = n }) }
