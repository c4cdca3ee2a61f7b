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
	"sort"
	"sync"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// SortedRun is a computed cube read where the reducers wrote it: an index
// over the job's output files, as one or more segments of records sorted by
// encoded group key and merged on iteration. CollectRun makes a segment of
// each file; Merged folds them into one. Keys are ordered as bytes — the
// order sorting the same keys as strings gives, not ComparePacked order. The
// record bytes are not copied: the run aliases the DFS files' own slices and
// keeps them alive. It is immutable once built, so any number of goroutines
// may read it.
type SortedRun struct {
	d     int
	files files
	// segs are the segments, each ascending with one row per distinct key. A
	// key in several segments stands as the last of them has it.
	segs [][]row
	// par is how many goroutines a pass over the run may use: the
	// Parallelism of the job that wrote it.
	par int

	count sync.Once
	n     int // distinct group keys over all segments; see Len and WriteCSV
}

// row locates one output record. It holds no pointer, so a million-row index
// costs the collector nothing to scan, and is 16 bytes in three words the
// sorts move cheaply; the 32-bit offset is what limits a file to
// maxFileBytes, the 16-bit file number a cube to maxFiles. (A key is a mask
// and at most 32 values of at most ten bytes each: its length fits 16 bits.)
type row struct {
	prefix uint64 // first 8 key bytes, big-endian, zero-padded: orders most rows without touching the file
	off    uint32 // of the record in its file
	where  uint32 // key length << 16 | position of the file in FS.List order
}

func newRow(file, off int, key []byte) row {
	return row{prefix: keyPrefix(key), off: uint32(off), where: uint32(len(key))<<16 | uint32(file)}
}

// maxFileBytes is the largest output file a row can address, maxFiles the
// most files. maxFileBytes is a variable so that a test can lower it.
var maxFileBytes int64 = math.MaxUint32

const maxFiles = math.MaxUint16 + 1

// files is the bytes rows point into.
type files [][]byte

func (fs files) key(r row) []byte { return fs[r.where&0xffff][r.off : r.off+r.where>>16] }

// The value is the 8 bytes behind key and tab.
func (fs files) value(r row) float64 { return DecodeFinal(fs[r.where&0xffff][r.off+r.where>>16+1:]) }

func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p [8]byte
	copy(p[:], key)
	return binary.BigEndian.Uint64(p[:])
}

// compare orders two rows as bytes.Compare orders their keys, deciding by the
// prefixes when they differ: zero padding keeps a key before every longer key
// it is a prefix of, so the prefix order never contradicts the byte order.
func (fs files) compare(a, b row) int {
	if a.prefix != b.prefix {
		return cmp.Compare(a.prefix, b.prefix)
	}
	return bytes.Compare(fs.key(a), fs.key(b))
}

// CollectRun indexes a cube written to the engine's DFS (non-discard mode)
// under the given prefix, one segment per file. Files are sorted at most
// eng.Cfg.Parallelism at a time. A group key written more than once keeps its
// last record, in file (FS.List) order and then record order — what
// collecting into a map did.
func CollectRun(eng *mr.Engine, prefix string, d int) (*SortedRun, error) {
	names := eng.FS.List(prefix)
	if len(names) > maxFiles {
		return nil, fmt.Errorf("cube: %d output files under %s, above the %d a sorted run indexes", len(names), prefix, maxFiles)
	}
	r := &SortedRun{d: d, files: make(files, len(names)), segs: make([][]row, len(names)), par: max(1, eng.Cfg.Parallelism)}
	errs := make([]error, len(names))
	sem := make(chan struct{}, r.par)
	var wg sync.WaitGroup
	for i, name := range names {
		var err error
		if r.files[i], err = eng.FS.Read(name); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			// One Append per reducer record makes the count exact.
			r.segs[i], errs[i] = indexFile(name, r.files, i, int(eng.FS.Records(name)))
			<-sem
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
			return &SortedRun{d: r.d, files: r.files, segs: [][]row{rows}, par: r.par}
		}
		rows = append(rows, w)
	}
}

// indexFile builds the sorted rows of file i of fs, one per distinct key;
// sizeHint is its expected record count.
func indexFile(name string, fs files, i, sizeHint int) ([]row, error) {
	data := fs[i]
	if int64(len(data)) > maxFileBytes {
		return nil, fmt.Errorf("cube: output file %s is %d bytes, above the %d a sorted run indexes per file", name, len(data), maxFileBytes)
	}
	rows := make([]row, 0, sizeHint)
	err := walkRecords(data, func(off, keyLen int) {
		rows = append(rows, newRow(i, off, data[off:off+keyLen]))
	})
	if err != nil {
		return nil, fmt.Errorf("cube: parsing %s: %w", name, err)
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := fs.compare(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
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
// "<group key>\t<8-byte float bits>" frames (see EncodeFinal); a uvarint byte
// of the key can be 0x09, so records are parsed structurally instead of split
// on the tab.
func walkRecords(data []byte, visit func(off, keyLen int)) error {
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
		visit(off, keyLen)
		off = end + 1 + 8
	}
	return nil
}

// probe is a key to search a segment for, with its row prefix.
type probe struct {
	key    []byte
	prefix uint64
}

func newProbe(key []byte) probe { return probe{key, keyPrefix(key)} }

// below reports whether w sorts before the probe, by the prefixes alone when
// they differ.
func (fs files) below(w row, p probe) bool {
	if w.prefix != p.prefix {
		return w.prefix < p.prefix
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

// merger yields the rows of a run's segments in ascending key order through a
// binary heap of the segments' next rows, so a row costs O(log segments)
// whatever the reducer count.
type merger struct {
	files files
	rest  [][]row // of each segment, the rows behind the one in the heap
	heap  []head  // one per segment with rows left; least (key, segment) first
}

type head struct {
	row
	seg int
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
	m := &merger{files: fs, rest: parts, heap: make([]head, 0, len(parts))}
	for i, part := range parts {
		if len(part) > 0 {
			m.heap, m.rest[i] = append(m.heap, head{part[0], i}), part[1:]
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

func (m *merger) less(a, b head) bool {
	if c := m.files.compare(a.row, b.row); c != 0 {
		return c < 0
	}
	return a.seg < b.seg
}

func (m *merger) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.less(h[c+1], h[c]) {
			c++
		}
		if !m.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// next returns the row of the next distinct key. Equal keys leave the heap in
// segment order, so the record of the last segment holding a key is the one
// returned.
func (m *merger) next() (row, bool) {
	for len(m.heap) > 0 {
		top := m.heap[0]
		if rest := m.rest[top.seg]; len(rest) > 0 {
			m.heap[0].row, m.rest[top.seg] = rest[0], rest[1:]
		} else {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		m.down(0)
		if len(m.heap) > 0 && m.files.compare(top.row, m.heap[0].row) == 0 {
			continue
		}
		return top.row, true
	}
	return row{}, false
}

// find returns the value the run holds for the probe's key. pos, when not
// nil, holds per segment where the search for the previous key ended: the
// search for this one starts there, doubles its step away until a row is not
// below the key and bisects the last step, so a key g rows on costs O(log g)
// comparisons of rows the last search left in cache, not O(log rows) of rows
// all over the index. A key below the previous one is searched for among the
// rows passed. The last segment holding the key stands, so segments are
// searched last to first and those before a hit keep their positions.
func (r *SortedRun) find(p probe, pos []int) (float64, bool) {
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
		if j < len(seg) && seg[j].prefix == p.prefix && bytes.Equal(fs.key(seg[j]), p.key) {
			return fs.value(seg[j]), true
		}
	}
	return 0, false
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
	return r.find(newProbe(relation.EncodeGroupKey(buf[:0], uint32(mask), dims)), nil)
}

// Cursor reads a run at a sequence of encoded keys. It is made for ascending
// sequences, where each search continues from the one before (see find), and
// answers any sequence as Lookup does. A cursor is one goroutine's.
type Cursor struct {
	run *SortedRun
	pos []int
}

// Cursor returns a cursor at the start of the run.
func (r *SortedRun) Cursor() *Cursor { return &Cursor{run: r, pos: make([]int, len(r.segs))} }

// Seek returns the value of the group with the given encoded key.
func (c *Cursor) Seek(key []byte) (float64, bool) { return c.run.find(newProbe(key), c.pos) }

// Each calls fn for every group in ascending key order until fn returns
// false. key aliases the output file and packed is reused between calls:
// fn copies what it keeps and modifies neither.
func (r *SortedRun) Each(fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64) bool) {
	r.each(nil, fn)
}

// each is Each starting at the first key not below from.
func (r *SortedRun) each(from []byte, fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64) bool) {
	var packed []relation.Value
	for m := r.merge(from); ; {
		w, ok := m.next()
		if !ok {
			return
		}
		key := r.files.key(w)
		var mask uint32
		mask, packed, _, _ = relation.ScanGroupKeyInto(packed, key) // indexFile parsed this key already
		if !fn(key, lattice.Mask(mask), packed, r.files.value(w)) {
			return
		}
	}
}

// Cuboid returns the groups of one cuboid, sorted by their packed values.
// The cuboid's keys share the encoded mask as a prefix no other key has, so
// they are one contiguous range of the run.
func (r *SortedRun) Cuboid(mask lattice.Mask) []Group {
	var out []Group
	from := binary.AppendUvarint(nil, uint64(mask))
	r.each(from, func(key []byte, _ lattice.Mask, packed []relation.Value, value float64) bool {
		if !bytes.HasPrefix(key, from) {
			return false
		}
		out = append(out, Group{Mask: mask, Packed: slices.Clone(packed), Value: value})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return relation.ComparePacked(out[i].Packed, out[j].Packed) < 0
	})
	return out
}

// EachRow calls fn for every group in ascending group-key order with the
// group's full-width string form: one value per dimension of rel, "*" where
// the dimension is aggregated away. dims is reused between calls.
func (r *SortedRun) EachRow(rel *relation.Relation, fn func(dims []string, value float64) error) error {
	var err error
	dims := make([]string, r.d)
	r.Each(func(_ []byte, mask lattice.Mask, packed []relation.Value, value float64) bool {
		j := 0
		for i := range dims {
			if !mask.Has(i) {
				dims[i] = "*"
				continue
			}
			dims[i] = rel.DimString(i, packed[j])
			j++
		}
		err = fn(dims, value)
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
		data = binary.LittleEndian.AppendUint64(append(append(data, key...), '\t'), math.Float64bits(v)) // EncodeFinal's bytes
	}
	rows, err := indexFile("result", files{data}, 0, len(r.Groups))
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
