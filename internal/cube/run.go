package cube

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// SortedRun is a computed cube read where the reducers wrote it: an index
// over the job's output files, each file's records sorted by encoded group
// key and the files merged on iteration. Keys are ordered as bytes — the
// order sorting the same keys as strings gives, not ComparePacked
// order. The record bytes are not copied: the run aliases the DFS files'
// own slices and keeps them alive. It is immutable once built, so any number
// of goroutines may read it.
type SortedRun struct {
	d     int
	files []runFile
	n     int // distinct group keys over all files
}

// runFile is one output file and its records in ascending key order, one row
// per distinct key.
type runFile struct {
	data []byte
	rows []row
}

// row locates one output record in its file. It holds no pointer, so a
// million-row index costs the collector nothing to scan, and is 16 bytes;
// the 32-bit offset is what limits a file to maxFileBytes.
type row struct {
	prefix uint64 // first 8 key bytes, big-endian, zero-padded: orders most rows without touching the file
	off    uint32 // of the record in the file
	klen   uint32 // key length; the value is the 8 bytes behind key and tab
}

// maxFileBytes is the largest output file a row can address. A variable so
// that a test can lower it.
var maxFileBytes int64 = math.MaxUint32

func (f *runFile) key(r row) []byte { return f.data[r.off : r.off+r.klen] }

func (f *runFile) value(r row) float64 { return DecodeFinal(f.data[r.off+r.klen+1:]) }

func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p [8]byte
	copy(p[:], key)
	return binary.BigEndian.Uint64(p[:])
}

// compare orders row a of f against row b of g as bytes.Compare orders
// their keys, deciding by the prefixes when they differ: zero padding keeps a
// key before every longer key it is a prefix of, so the prefix order never
// contradicts the byte order.
func (f *runFile) compare(a row, g *runFile, b row) int {
	if a.prefix != b.prefix {
		return cmp.Compare(a.prefix, b.prefix)
	}
	return bytes.Compare(f.key(a), g.key(b))
}

// CollectRun indexes a cube written to the engine's DFS (non-discard mode)
// under the given prefix. Files are sorted at most eng.Cfg.Parallelism at a
// time. A group key written more than once keeps its last record, in file
// (FS.List) order and then record order — what collecting into a map did.
func CollectRun(eng *mr.Engine, prefix string, d int) (*SortedRun, error) {
	names := eng.FS.List(prefix)
	files := make([]runFile, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, max(1, eng.Cfg.Parallelism))
	var wg sync.WaitGroup
	for i, name := range names {
		data, err := eng.FS.Read(name)
		if err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			// One Append per reducer record makes the count exact.
			files[i], errs[i] = indexFile(name, data, int(eng.FS.Records(name)))
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return newSortedRun(d, files), nil
}

func newSortedRun(d int, files []runFile) *SortedRun {
	r := &SortedRun{d: d, files: files}
	for m := r.merge(nil); ; r.n++ {
		if _, _, ok := m.next(); !ok {
			return r
		}
	}
}

// indexFile builds one file's sorted rows; sizeHint is its expected record
// count.
func indexFile(name string, data []byte, sizeHint int) (runFile, error) {
	if int64(len(data)) > maxFileBytes {
		return runFile{}, fmt.Errorf("cube: output file %s is %d bytes, above the %d a sorted run indexes per file", name, len(data), maxFileBytes)
	}
	f := runFile{data: data, rows: make([]row, 0, sizeHint)}
	err := walkRecords(data, func(off, keyLen int) {
		f.rows = append(f.rows, row{prefix: keyPrefix(data[off : off+keyLen]), off: uint32(off), klen: uint32(keyLen)})
	})
	if err != nil {
		return runFile{}, fmt.Errorf("cube: parsing %s: %w", name, err)
	}
	slices.SortFunc(f.rows, func(a, b row) int {
		if c := f.compare(a, &f, b); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	// Equal keys now sit together in record order; the last one stands.
	rows := f.rows[:0]
	for i, r := range f.rows {
		if i+1 < len(f.rows) && f.compare(r, &f, f.rows[i+1]) == 0 {
			continue
		}
		rows = append(rows, r)
	}
	f.rows = rows
	return f, nil
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

// lowerBound returns the position of the first row whose key is not below
// key.
func (f *runFile) lowerBound(key []byte) int {
	probe := runFile{data: key}
	at := row{prefix: keyPrefix(key), klen: uint32(len(key))}
	return sort.Search(len(f.rows), func(i int) bool { return f.compare(f.rows[i], &probe, at) >= 0 })
}

// merger yields the rows of a run's files in ascending key order through a
// binary heap of the files' next rows, so a row costs O(log files) whatever
// the reducer count.
type merger struct {
	files []runFile
	pos   []int  // position of each file's row in the heap
	heap  []head // one per file with rows left; least (key, file) first
}

type head struct {
	row
	file int
}

// merge starts a merge at the first key not below from (nil: the first key).
func (r *SortedRun) merge(from []byte) *merger {
	m := &merger{files: r.files, pos: make([]int, len(r.files)), heap: make([]head, 0, len(r.files))}
	for i := range r.files {
		f := &r.files[i]
		if m.pos[i] = f.lowerBound(from); m.pos[i] < len(f.rows) {
			m.heap = append(m.heap, head{f.rows[m.pos[i]], i})
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

func (m *merger) compare(a, b head) int {
	return m.files[a.file].compare(a.row, &m.files[b.file], b.row)
}

func (m *merger) less(a, b head) bool {
	if c := m.compare(a, b); c != 0 {
		return c < 0
	}
	return a.file < b.file
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

// next returns the file and row of the next distinct key. Equal keys leave
// the heap in file order, so the record of the last file holding a key is
// the one returned.
func (m *merger) next() (*runFile, row, bool) {
	for len(m.heap) > 0 {
		top := m.heap[0]
		f := &m.files[top.file]
		if m.pos[top.file]++; m.pos[top.file] < len(f.rows) {
			m.heap[0].row = f.rows[m.pos[top.file]]
		} else {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		m.down(0)
		if len(m.heap) > 0 && m.compare(top, m.heap[0]) == 0 {
			continue
		}
		return f, top.row, true
	}
	return nil, row{}, false
}

// Len returns the number of groups in the cube.
func (r *SortedRun) Len() int { return r.n }

// Lookup returns the aggregate of the group of dims projected on mask. The
// dims slice is full-width, as for Result.Lookup.
func (r *SortedRun) Lookup(mask lattice.Mask, dims []relation.Value) (float64, bool) {
	var buf [64]byte
	key := relation.EncodeGroupKey(buf[:0], uint32(mask), dims)
	for i := len(r.files) - 1; i >= 0; i-- { // the last file holding the key stands
		f := &r.files[i]
		if j := f.lowerBound(key); j < len(f.rows) && bytes.Equal(f.key(f.rows[j]), key) {
			return f.value(f.rows[j]), true
		}
	}
	return 0, false
}

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
		f, row, ok := m.next()
		if !ok {
			return
		}
		key := f.key(row)
		var mask uint32
		mask, packed, _, _ = relation.ScanGroupKeyInto(packed, key) // indexFile parsed this key already
		if !fn(key, lattice.Mask(mask), packed, f.value(row)) {
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

// WriteCSV renders the cube as CSV: a header of rel's dimension names plus
// valueName, then one EachRow row per group with the aggregate in its
// shortest exact decimal form. It is the one cube writer behind spcube's
// plain and -delta modes.
func (r *SortedRun) WriteCSV(w io.Writer, rel *relation.Relation, valueName string) error {
	cw := csv.NewWriter(w)
	row := append(append(make([]string, 0, r.d+1), rel.Schema.DimNames...), valueName)
	if err := cw.Write(row); err != nil {
		return err
	}
	// Counts and sums repeat from group to group: format a value once per
	// streak.
	var last uint64
	text := ""
	err := r.EachRow(rel, func(dims []string, value float64) error {
		if bits := math.Float64bits(value); bits != last || text == "" {
			last, text = bits, strconv.FormatFloat(value, 'g', -1, 64)
		}
		copy(row, dims)
		row[r.d] = text
		return cw.Write(row)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes the result exactly as a SortedRun of the same groups
// would: the map is laid out as one file of output records and indexed.
func (r *Result) WriteCSV(w io.Writer, rel *relation.Relation, valueName string) error {
	var data []byte
	for key, v := range r.Groups {
		data = append(append(append(data, key...), '\t'), EncodeFinal(v)...)
	}
	f, err := indexFile("result", data, len(r.Groups))
	if err != nil {
		return err
	}
	return newSortedRun(r.D, []runFile{f}).WriteCSV(w, rel, valueName)
}
