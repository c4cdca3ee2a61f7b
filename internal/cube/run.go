package cube

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// SortedRun is a computed cube read where the reducers wrote it: an index
// over the job's output files, as one or more segments of records sorted by
// encoded group key and merged on iteration. CollectRun makes a segment of
// each file; Merged folds them into one. Keys are ordered as bytes, which is
// cuboid by cuboid in ascending mask, and within a cuboid ComparePacked order:
// the <_C order of the paper's §4.1. The record bytes are not copied: the run
// aliases the DFS files' own slices and keeps them alive. It is immutable once
// built, so any number of goroutines may read it.
type SortedRun struct {
	d     int
	files files
	// segs are the segments, each ascending with one row per distinct key. A
	// key in several segments stands as the last of them has it.
	segs [][]row
	// par is how many goroutines a pass over the run may use: the
	// Parallelism of the job that wrote it.
	par int
	// counts is where the records keep each group's tuple count.
	counts counts

	count sync.Once
	n     int // distinct group keys over all segments; see Len and WriteCSV
}

// row locates one output record: Prefix is its key's first 8 bytes, which
// order most rows without touching the file, Pos its offset in its file, and
// Tag its key's length << 16 | the position of its file in FS.List order.
// It is mr's index row, so collect sorts it with the map side's radix
// kernel; it holds no pointer, so a million-row index costs the collector
// nothing to scan. The 32-bit offset is what limits a file to maxFileBytes,
// the 16-bit file number a cube to maxFiles. (A key is a mask and at most 32
// values of at most ten bytes each: its length fits 16 bits.)
type row = mr.IndexRow

func newRow(file, off int, key []byte) row {
	return row{Prefix: mr.KeyPrefix(key), Pos: uint32(off), Tag: uint32(len(key))<<16 | uint32(file)}
}

// maxFileBytes is the largest output file a row can address, maxFiles the
// most files. maxFileBytes is a variable so that a test can lower it.
var maxFileBytes int64 = math.MaxUint32

const maxFiles = math.MaxUint16 + 1

// files is the bytes rows point into.
type files [][]byte

func (fs files) key(r row) []byte { return fs[r.Tag&0xffff][r.Pos : r.Pos+r.Tag>>16] }

// The value is the 8 bytes behind key and tab.
func (fs files) value(r row) float64 { return decodeFinal(fs[r.Tag&0xffff][r.Pos+r.Tag>>16+1:]) }

// group returns the value of row w's record and its group's tuple count, 0
// when the records keep none.
func (r *SortedRun) group(w row) (float64, int64) {
	v := r.files.value(w)
	switch r.counts {
	case countIsFinal:
		return v, int64(v)
	case countInState: // the state's leading varint
		n, _ := binary.Varint(r.groupState(w, nil))
		return v, n
	}
	return v, 0
}

// groupState returns the encoded aggregate state of row w's group: a counted
// job's record's own, aliasing the file, or count's — the count as a varint —
// in buf; nil when the records keep none.
func (r *SortedRun) groupState(w row, buf []byte) []byte {
	switch r.counts {
	case countIsFinal:
		return binary.AppendVarint(buf[:0], int64(r.files.value(w)))
	case countInState: // behind key, tab, the 8-byte final and its length
		b := r.files[w.Tag&0xffff][w.Pos+w.Tag>>16+9:]
		n, k := binary.Uvarint(b)
		return b[k : k+int(n)]
	}
	return nil
}

// compare orders two rows as bytes.Compare orders their keys, deciding by the
// prefixes when they differ (see mr.KeyPrefix).
func (fs files) compare(a, b row) int {
	if a.Prefix != b.Prefix {
		return cmp.Compare(a.Prefix, b.Prefix)
	}
	return bytes.Compare(fs.key(a), fs.key(b))
}

// CollectRun indexes a cube a job run under spec wrote to the engine's DFS
// (non-discard mode) under the given prefix, one segment per file; the spec
// says where its records keep the groups' counts (see Spec.Emit). Files are
// sorted by at most eng.Cfg.Parallelism workers. A group key written more
// than once keeps its last record, in file (FS.List) order and then record
// order — what collecting into a map did.
func CollectRun(eng *mr.Engine, prefix string, d int, spec Spec) (*SortedRun, error) {
	names := eng.FS.List(prefix)
	if len(names) > maxFiles {
		return nil, fmt.Errorf("cube: %d output files under %s, above the %d a sorted run indexes", len(names), prefix, maxFiles)
	}
	r := &SortedRun{d: d, files: make(files, len(names)), segs: make([][]row, len(names)), par: max(1, eng.Cfg.Parallelism), counts: spec.counts()}
	errs := make([]error, len(names))
	n := len(names) // files read
	for i, name := range names {
		if r.files[i], errs[i] = eng.FS.Read(name); errs[i] != nil {
			n = i
			break
		}
	}
	// Each worker sorts through one scratch array, reused from file to
	// file: a fresh one per file would raise the peak heap by its size.
	var next atomic.Int32
	var wg sync.WaitGroup
	for range min(r.par, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch mr.IndexScratch
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				// One record per EmitKV makes the count exact.
				r.segs[i], errs[i] = indexFile(names[i], r.files, i, int(eng.FS.Records(names[i])), r.counts == countInState, &scratch)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Merged returns the same cube as one segment. It costs a pass over the cube
// and, while it runs, a second copy of the index; it pays when the run is to
// be read at many keys, which then cost one search each, not one per file.
func (r *SortedRun) Merged() *SortedRun {
	if len(r.segs) <= 1 {
		return r
	}
	total := 0
	for _, seg := range r.segs {
		total += len(seg)
	}
	rows := make([]row, 0, total)
	for m := r.merge(nil); ; {
		w, ok := m.next()
		if !ok {
			return &SortedRun{d: r.d, files: r.files, segs: [][]row{rows}, par: r.par, counts: r.counts}
		}
		rows = append(rows, w)
	}
}

// indexFile builds the sorted rows of file i of fs, one per distinct key;
// sizeHint is its expected record count, counted says whether a state
// follows each final, and scratch is the sort's working memory.
func indexFile(name string, fs files, i, sizeHint int, counted bool, scratch *mr.IndexScratch) ([]row, error) {
	data := fs[i]
	if int64(len(data)) > maxFileBytes {
		return nil, fmt.Errorf("cube: output file %s is %d bytes, above the %d a sorted run indexes per file", name, len(data), maxFileBytes)
	}
	rows := make([]row, 0, sizeHint)
	err := walkRecords(data, counted, func(off, keyLen int) {
		rows = append(rows, newRow(i, off, data[off:off+keyLen]))
	})
	if err != nil {
		return nil, fmt.Errorf("cube: parsing %s: %w", name, err)
	}
	// Rows of equal prefix stay in record order, and so do equal keys: the
	// prefix decides equality only for two keys of one length up to 8 bytes.
	mr.SortIndex(rows, scratch, func(run []row) {
		for _, r := range run {
			if r.Tag != run[0].Tag || r.Tag>>16 > 8 {
				slices.SortStableFunc(run, func(a, b row) int { return bytes.Compare(fs.key(a), fs.key(b)) })
				return
			}
		}
	})
	// Equal keys now sit together in record order; the last one stands.
	distinct := rows[:0]
	for j, r := range rows {
		if j+1 < len(rows) && fs.compare(r, rows[j+1]) == 0 {
			continue
		}
		distinct = append(distinct, r)
	}
	return distinct, nil
}

// walkRecords calls visit with the offset and key length of every record of
// one output file. Output records are written by the reducers as concatenated
// "<group key>\t<8-byte float bits>" frames, counted ones with a state behind
// its minimal uvarint length, which starts with the group's count as a
// minimal, non-negative varint (see Spec.Emit); a byte of the key can be 0x09,
// so records are parsed structurally instead of split on the tab.
func walkRecords(data []byte, counted bool, visit func(off, keyLen int)) error {
	var scratch [lattice.MaxDims]relation.Value
	for off := 0; off < len(data); {
		_, _, keyLen, err := relation.ScanGroupKeyInto(scratch[:0], data[off:])
		if err != nil {
			return err
		}
		end := off + keyLen
		if end >= len(data) || data[end] != '\t' {
			return fmt.Errorf("cube: malformed output record")
		}
		if len(data)-end-1 < 8 {
			return fmt.Errorf("cube: truncated output value")
		}
		next := end + 1 + 8
		if counted {
			size, k := binary.Uvarint(data[next:])
			if k <= 0 || k > 1 && data[next+k-1] == 0 || uint64(len(data)-next-k) < size {
				return fmt.Errorf("cube: malformed output state")
			}
			state := data[next+k : next+k+int(size)]
			if n, c := binary.Varint(state); c <= 0 || c > 1 && state[c-1] == 0 || n < 0 {
				return fmt.Errorf("cube: malformed output count")
			}
			next += k + int(size)
		}
		visit(off, keyLen)
		off = next
	}
	return nil
}

// probe is a key to search a segment for, with its row prefix.
type probe struct {
	key    []byte
	prefix uint64
}

func newProbe(key []byte) probe { return probe{key, mr.KeyPrefix(key)} }

// below reports whether w sorts before the probe, by the prefixes alone when
// they differ.
func (fs files) below(w row, p probe) bool {
	if w.Prefix != p.prefix {
		return w.Prefix < p.prefix
	}
	return bytes.Compare(fs.key(w), p.key) < 0
}

// lowerBound returns the position of the first row of seg[lo:hi] whose key is
// not below the probe's, hi when there is none.
func (fs files) lowerBound(seg []row, lo, hi int, p probe) int {
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); fs.below(seg[mid], p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// merger yields the rows of a run's segments in ascending key order through
// mr's loser tree over the segments' next rows, so a row costs O(log
// segments) whatever the reducer count.
type merger struct {
	files files
	parts [][]row // of each segment, the rows not yet yielded
	tree  mr.LoserTree
}

// merge starts a merge at the first key not below from (nil: the first key).
func (r *SortedRun) merge(from []byte) *merger {
	parts := make([][]row, len(r.segs))
	p := newProbe(from)
	for i, seg := range r.segs {
		parts[i] = seg[r.files.lowerBound(seg, 0, len(seg), p):]
	}
	return newMerger(r.files, parts)
}

// newMerger starts a merge of parts, which it keeps: a stretch of each of a
// run's segments, in segment order.
func newMerger(fs files, parts [][]row) *merger {
	m := &merger{files: fs, parts: parts}
	m.tree = mr.NewLoserTree(len(parts), m.beats)
	return m
}

// beats reports whether segment a's next row precedes segment b's: drained
// segments lose to live ones, equal keys go to the lower segment.
func (m *merger) beats(a, b int) bool {
	switch pa, pb := m.parts[a], m.parts[b]; {
	case len(pa) == 0:
		return false
	case len(pb) == 0:
		return true
	default:
		if c := m.files.compare(pa[0], pb[0]); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// next returns the row of the next distinct key. Equal keys win in segment
// order, so the record of the last segment holding a key is the one
// returned.
func (m *merger) next() (row, bool) {
	for {
		w := m.tree.Winner()
		if w < 0 || len(m.parts[w]) == 0 {
			return row{}, false
		}
		top := m.parts[w][0]
		m.parts[w] = m.parts[w][1:]
		m.tree.Replay(m.beats)
		if rest := m.parts[m.tree.Winner()]; len(rest) == 0 || m.files.compare(top, rest[0]) != 0 {
			return top, true
		}
	}
}

// find returns the row the run holds for the probe's key. pos, when not nil,
// holds per segment where the search for the previous key ended: the search
// for this one starts there, doubles its step away until a row is not below
// the key and bisects the last step, so a key g rows on costs O(log g)
// comparisons of rows the last search left in cache, not O(log rows) of rows
// all over the index. A key below the previous one is searched for among the
// rows passed. The last segment holding the key stands, so segments are
// searched last to first and those before a hit keep their positions.
func (r *SortedRun) find(p probe, pos []int) (row, bool) {
	fs := r.files
	for i := len(r.segs) - 1; i >= 0; i-- {
		seg := r.segs[i]
		lo, hi := 0, len(seg)
		if pos != nil {
			if lo, hi = pos[i], pos[i]; lo > 0 && !fs.below(seg[lo-1], p) {
				lo, hi = 0, lo-1
			} else {
				for step := 1; hi < len(seg) && fs.below(seg[hi], p); step *= 2 {
					lo, hi = hi+1, hi+step
				}
				hi = min(hi, len(seg))
			}
		}
		j := fs.lowerBound(seg, lo, hi, p)
		if pos != nil {
			pos[i] = j
		}
		// The prefixes differ for nearly every row that is not the key's:
		// deciding by them leaves the file's bytes untouched.
		if j < len(seg) && seg[j].Prefix == p.prefix && bytes.Equal(fs.key(seg[j]), p.key) {
			return seg[j], true
		}
	}
	return row{}, false
}

// Len returns the number of groups in the cube. Over several segments that
// takes a merge pass to find, made on the first call unless WriteCSV, which
// counts the rows it writes, has run.
func (r *SortedRun) Len() int {
	r.count.Do(func() {
		if len(r.segs) == 1 {
			r.n = len(r.segs[0])
			return
		}
		for m := r.merge(nil); ; r.n++ {
			if _, ok := m.next(); !ok {
				return
			}
		}
	})
	return r.n
}

// Lookup returns the aggregate of the group of dims projected on mask. The
// dims slice is full-width, as for Result.Lookup.
func (r *SortedRun) Lookup(mask lattice.Mask, dims []relation.Value) (float64, bool) {
	var buf [64]byte
	w, ok := r.find(newProbe(relation.EncodeGroupKey(buf[:0], uint32(mask), dims)), nil)
	if !ok {
		return 0, false
	}
	return r.files.value(w), true
}

// Cursor reads a run at a sequence of encoded keys. It is made for ascending
// sequences, where each search continues from the one before (see find), and
// answers any sequence as Lookup does. A cursor is one goroutine's.
type Cursor struct {
	run *SortedRun
	pos []int
	buf [binary.MaxVarintLen64]byte // a count job's state
}

// Cursor returns a cursor at the start of the run.
func (r *SortedRun) Cursor() *Cursor { return &Cursor{run: r, pos: make([]int, len(r.segs))} }

// Seek returns the encoded aggregate state (as EachState has it) of the group
// with the given encoded key. The state aliases the run or the cursor, and
// holds until the next Seek.
func (c *Cursor) Seek(key []byte) ([]byte, bool) {
	w, ok := c.run.find(newProbe(key), c.pos)
	if !ok {
		return nil, false
	}
	return c.run.groupState(w, c.buf[:]), true
}

// Each calls fn for every group in ascending key order until fn returns
// false, with the group's tuple count when the job that wrote the run ran
// count or a counted aggregate (see Spec.Emit), else 0. key aliases the
// output file and packed is reused between calls: fn copies what it keeps and
// modifies neither.
func (r *SortedRun) Each(fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64, count int64) bool) {
	r.each(nil, fn)
}

// EachState calls fn for every group in ascending key order until fn returns
// false, with the group's encoded aggregate state when the job that wrote the
// run ran count (the count as a varint) or a counted aggregate (the state its
// records carry), else nil. key and state alias the output file or a buffer
// reused between calls: fn copies what it keeps and modifies neither.
func (r *SortedRun) EachState(fn func(key, state []byte) bool) {
	var buf [binary.MaxVarintLen64]byte
	for m := r.merge(nil); ; {
		w, ok := m.next()
		if !ok || !fn(r.files.key(w), r.groupState(w, buf[:])) {
			return
		}
	}
}

// each is Each starting at the first key not below from.
func (r *SortedRun) each(from []byte, fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64, count int64) bool) {
	var packed []relation.Value
	for m := r.merge(from); ; {
		w, ok := m.next()
		if !ok {
			return
		}
		key := r.files.key(w)
		var mask uint32
		mask, packed, _, _ = relation.ScanGroupKeyInto(packed, key) // indexFile parsed this key already
		v, n := r.group(w)
		if !fn(key, lattice.Mask(mask), packed, v, n) {
			return
		}
	}
}

// Cuboid returns the groups of one cuboid, sorted by their packed values:
// the run's range of keys that start with the cuboid's prefix, in run order.
func (r *SortedRun) Cuboid(mask lattice.Mask) []Group {
	var out []Group
	from := relation.AppendCuboidPrefix(nil, uint32(mask))
	r.each(from, func(key []byte, _ lattice.Mask, packed []relation.Value, value float64, _ int64) bool {
		if !bytes.HasPrefix(key, from) {
			return false
		}
		out = append(out, Group{Mask: mask, Packed: slices.Clone(packed), Value: value})
		return true
	})
	return out
}

// EachRow calls fn for every group in ascending group-key order with the
// group's full-width string form: one value per dimension of rel, "*" where
// the dimension is aggregated away. dims is reused between calls.
func (r *SortedRun) EachRow(rel *relation.Relation, fn func(dims []string, value float64) error) error {
	var err error
	dims := make([]string, r.d)
	r.Each(func(_ []byte, mask lattice.Mask, packed []relation.Value, value float64, _ int64) bool {
		err = fn(rel.Dict.GroupText(dims, uint32(mask), packed), value)
		return err == nil
	})
	return err
}

// Run lays the result out as a SortedRun of the same groups: one file of
// output records, indexed. It is how a map reaches the code that reads runs —
// the CSV writer, the serving index.
func (r *Result) Run() (*SortedRun, error) {
	var data []byte
	for key, v := range r.Groups {
		data = appendFinal(append(append(data, key...), '\t'), v)
	}
	rows, err := indexFile("result", files{data}, 0, len(r.Groups), false, new(mr.IndexScratch))
	if err != nil {
		return nil, err
	}
	return &SortedRun{d: r.D, files: files{data}, segs: [][]row{rows}, par: runtime.GOMAXPROCS(0)}, nil
}

// WriteCSV writes the result exactly as a SortedRun of the same groups would.
func (r *Result) WriteCSV(w io.Writer, rel *relation.Relation, valueName string) error {
	run, err := r.Run()
	if err != nil {
		return err
	}
	return run.WriteCSV(w, rel, valueName)
}
