package cube

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// SortedRun is a computed cube read where the reducers wrote it: the job's
// output files, each sorted by encoded group key where it lies, as segments
// merged on iteration. Keys are ordered as bytes, which is cuboid by cuboid in
// ascending mask, and within a cuboid ComparePacked order: the <_C order of
// the paper's §4.1. The index is sparse — the key of every blockRecords-th
// record of a file and where each cuboid starts and ends in it — so the run
// costs its records and a few bytes a group beside them. It is immutable once
// built, so any number of goroutines may read it.
type SortedRun struct {
	d int
	// files are the records, each file ascending by key; segs their
	// indexes. A key in several files stands as the last of them has it.
	files files
	segs  []segment
	// spans are the files' cuboid stretches, ascending by first key: the
	// directory a search finds the segments that may hold a key in.
	// disjoint is whether every key is in one record: no file writes a key
	// twice and every span starts above the reach of those before, as an
	// SP-Cube job's reducers write them.
	spans    []span
	disjoint bool
	// par is how many goroutines a pass over the run may use: the
	// Parallelism of the job that wrote it.
	par int
	// counts is where the records keep each group's tuple count.
	counts counts

	count sync.Once
	n     int // distinct group keys over all segments; see Len and WriteCSV
}

// blockRecords is how many records a segment's block stands for: a search
// bisects the blocks' heads and then scans at most this many records.
const blockRecords = 8

// segment is the index of one sorted file.
type segment struct {
	// blocks[j] stands for the file's records from j·blockRecords on.
	blocks []block
	// records is the file's record count; dups whether some key is
	// written more than once, in which case its last record stands.
	records int
	dups    bool
}

// block is blockRecords records of a sorted file: head is the first one's
// row, and byte i of tags the keyTag of record i's key, so that a search for
// a key the block lacks — most of what a delta batch asks its base — mostly
// ends without reading the file.
type block struct {
	head row
	tags uint64
}

// keyTag is a byte of a hash of key's length and of its first and last 8
// bytes, which hold all of a key of up to 16 bytes: keys that differ only
// between them share their tags, which costs a block scan, never an answer.
func keyTag(key []byte) uint64 {
	var h uint64
	if n := len(key); n >= 8 {
		h = binary.BigEndian.Uint64(key) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(key[n-8:]), 29)
	} else {
		for _, c := range key {
			h = h<<8 | uint64(c)
		}
	}
	return ((h ^ uint64(len(key))) * 0x9e3779b97f4a7c15) >> 56
}

// mayHold reports whether the block may hold a key of the given tag: whether
// a byte of its tags equals it, by the classic zero-byte test on their
// difference, which may say yes for a byte above one that matches, never no
// for one that does. The bytes past a short last block's records are zero, as
// a tag can be: they too only say yes.
func (b *block) mayHold(tag uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	x := b.tags ^ tag*ones
	return (x-ones)&^x&highs != 0
}

// span is one cuboid's stretch of a sorted file, which holds each cuboid as
// one: its first and last records, and the blocks[lo:hi] of segment seg that
// hold it. In a run's directory, reach is the greatest last record of
// the span and every span before it.
type span struct {
	first, last, reach row
	seg, lo, hi        int
}

// setSpans makes the run's directory of the segments' spans.
func (r *SortedRun) setSpans(perSeg [][]span) {
	r.spans = slices.Concat(perSeg...)
	slices.SortFunc(r.spans, func(a, b span) int { return r.files.compare(a.first, b.first) })
	r.disjoint = true
	for _, seg := range r.segs {
		r.disjoint = r.disjoint && !seg.dups
	}
	for i := range r.spans {
		sp := &r.spans[i]
		sp.reach = sp.last
		if i > 0 {
			prev := r.spans[i-1].reach
			r.disjoint = r.disjoint && r.files.compare(prev, sp.first) < 0
			if r.files.compare(prev, sp.last) > 0 {
				sp.reach = prev
			}
		}
	}
}

// row locates one output record: Prefix is its key's first 8 bytes, which
// order most rows without touching the file, Pos its offset in its file, and
// Tag its key's length << 16 | the position of its file in FS.List order.
// It is mr's index row, so collect sorts it with the map side's radix
// kernel. The 32-bit offset is what limits a file to maxFileBytes, the 16-bit
// file number a cube to maxFiles. (A key is a mask and at most 32 values of
// at most ten bytes each: its length fits 16 bits.)
type row = mr.IndexRow

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

// The records of a collected run were parsed and checked by walkRecords, so
// reading them again takes no checks: numLens[c] is the length of the prefix
// varint that starts with byte c, keyLen the length of the group key at the
// start of b — its values are skipped, not decoded — and recordEnd where the
// record at off, whose key is keyLen bytes, ends.
var numLens = func() (t [256]uint8) {
	for c := range t {
		t[c] = uint8(bits.LeadingZeros8(^uint8(c)) + 1)
	}
	return t
}()

func keyLen(b []byte) int {
	n := int(numLens[b[0]])
	mask := uint32(b[0] & (0xff >> n))
	for _, c := range b[1:n] {
		mask = mask<<8 | uint32(c)
	}
	for k := bits.OnesCount32(mask); k > 0; k-- {
		n += int(numLens[b[n]])
	}
	return n
}

// cuboidBits is the part of a key's prefix that its mask's varint takes.
func cuboidBits(prefix uint64) uint64 { return prefix >> (64 - 8*int(numLens[prefix>>56])) }

// keyPrefix is mr.KeyPrefix of the n-byte key of the record at data[off:],
// read in one load: every record has at least 9 bytes behind its key, so the
// bytes past a shorter key are there to be masked off.
func keyPrefix(data []byte, off, n int) uint64 {
	prefix := binary.BigEndian.Uint64(data[off:])
	if n < 8 {
		prefix &^= math.MaxUint64 >> (8 * n)
	}
	return prefix
}

func recordEnd(data []byte, off, keyLen int, counted bool) int {
	end := off + keyLen + 1 + 8
	if counted {
		if size := data[end]; size < 0x80 { // a state under 128 bytes
			return end + 1 + int(size)
		}
		size, k := binary.Uvarint(data[end:])
		end += k + int(size)
	}
	return end
}

// CollectRun reads a cube a job run under spec wrote to the engine's DFS
// (non-discard mode) under the given prefix as a run of one segment per file;
// the spec says where its records keep the groups' counts (see Spec.Emit).
// Each file is sorted where it lies: its records, copied in key order, are
// written back over it (FS.Reorder), by at most eng.Cfg.Parallelism
// workers. A group key written more than once keeps its last record, in file
// (FS.List) order and then record order — what collecting into a map did. A
// collect that fails may leave some files sorted.
func CollectRun(eng *mr.Engine, prefix string, d int, spec Spec) (*SortedRun, error) {
	names := eng.FS.List(prefix)
	if len(names) > maxFiles {
		return nil, fmt.Errorf("cube: %d output files under %s, above the %d a sorted run indexes", len(names), prefix, maxFiles)
	}
	r := &SortedRun{d: d, files: make(files, len(names)), segs: make([]segment, len(names)), par: max(1, eng.Cfg.Parallelism), counts: spec.counts()}
	errs, spans := make([]error, len(names)), make([][]span, len(names))
	n := len(names) // files read
	for i, name := range names {
		if r.files[i], errs[i] = eng.FS.Read(name); errs[i] != nil {
			n = i
			break
		}
	}
	// Each worker sorts through one index, one scratch array and one
	// sorted copy, reused from file to file, which FS.Reorder writes back
	// over the file: a fresh index or copy per file would raise the peak
	// heap by its size, and a copy kept for each file would leave the
	// reducers' bytes behind as garbage of the cube's size. The largest
	// files go first, so that a worker's buffers are sized by its first
	// file and never outgrown.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(r.files[b]), len(r.files[a])) })
	var next atomic.Int32
	var wg sync.WaitGroup
	for range min(r.par, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s sorter
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				i := order[k]
				// One record per EmitKV makes the count exact.
				s.rows = slices.Grow(s.rows[:0], int(eng.FS.Records(names[i])))
				var sorted []byte
				sorted, r.segs[i], spans[i], errs[i] = s.sortFile(names[i], r.files, i, r.counts == countInState)
				if errs[i] == nil && sorted != nil {
					errs[i] = eng.FS.Reorder(names[i], sorted)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.setSpans(spans)
	return r, nil
}

// sorter is one worker's working memory for sortFile: a file's index, one
// row per record, the radix sort's scratch and the file's sorted copy.
type sorter struct {
	rows    []row
	scratch mr.IndexScratch
	sorted  []byte
}

// sortFile returns the records of file i of fs in ascending key order — a
// stable sort, so equal keys keep their record order — in the sorter's own
// buffer, nil when the file holds them in that order already, with the
// segment and the spans that index them as they will lie; counted says
// whether a state follows each final.
func (s *sorter) sortFile(name string, fs files, i int, counted bool) ([]byte, segment, []span, error) {
	data := fs[i]
	if int64(len(data)) > maxFileBytes {
		return nil, segment{}, nil, fmt.Errorf("cube: output file %s is %d bytes, above the %d a sorted run indexes per file", name, len(data), maxFileBytes)
	}
	// A row's file number is i for every row here: until the rows are
	// laid down, its bits hold the key's keyTag instead, taken while the
	// walk has the key in cache.
	key := func(r row) []byte { return data[r.Pos : r.Pos+r.Tag>>16] }
	rows := s.rows[:0]
	err := walkRecords(data, counted, func(off, keyLen int) {
		rows = append(rows, row{Prefix: keyPrefix(data, off, keyLen), Pos: uint32(off), Tag: uint32(keyLen)<<16 | uint32(keyTag(data[off:off+keyLen]))})
	})
	s.rows = rows
	if err != nil {
		return nil, segment{}, nil, fmt.Errorf("cube: parsing %s: %w", name, err)
	}
	// Rows of equal prefix stay in record order, and so do equal keys: the
	// prefix decides equality only for two keys of one length up to 8 bytes.
	mr.SortIndex(rows, &s.scratch, func(run []row) {
		for _, r := range run {
			if r.Tag>>16 != run[0].Tag>>16 || r.Tag>>16 > 8 {
				slices.SortStableFunc(run, func(a, b row) int { return bytes.Compare(key(a), key(b)) })
				return
			}
		}
	})
	// Lay the records down in that order, keeping a head every
	// blockRecords records and a span per cuboid: a key's cuboid is the
	// prefix varint its prefix starts with.
	sorted := slices.Grow(s.sorted[:0], len(data))
	seg := segment{blocks: make([]block, 0, (len(rows)+blockRecords-1)/blockRecords), records: len(rows)}
	var spans []span
	inOrder := true
	for j, w := range rows {
		n := w.Tag >> 16
		if j > 0 && rows[j-1].Prefix == w.Prefix && bytes.Equal(key(rows[j-1]), key(w)) {
			seg.dups = true
		}
		at := row{Prefix: w.Prefix, Pos: uint32(len(sorted)), Tag: n<<16 | uint32(i)}
		inOrder = inOrder && w.Pos == at.Pos
		sorted = append(sorted, data[w.Pos:recordEnd(data, int(w.Pos), int(n), counted)]...)
		if j%blockRecords == 0 {
			seg.blocks = append(seg.blocks, block{head: at})
		}
		seg.blocks[len(seg.blocks)-1].tags |= uint64(w.Tag&0xff) << (8 * (j % blockRecords))
		if j == 0 || cuboidBits(w.Prefix) != cuboidBits(rows[j-1].Prefix) {
			spans = append(spans, span{first: at, seg: i, lo: j / blockRecords})
		}
		sp := &spans[len(spans)-1]
		sp.last, sp.hi = at, j/blockRecords+1
	}
	s.sorted = sorted
	if inOrder {
		sorted = nil
	}
	return sorted, seg, spans, nil
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

// probe is a key to search a run for, with its row prefix and its keyTag.
type probe struct {
	key         []byte
	prefix, tag uint64
}

func newProbe(key []byte) probe { return probe{key, mr.KeyPrefix(key), keyTag(key)} }

// order compares row w's key with the probe's, by the prefixes alone when
// they differ.
func (fs files) order(w row, p probe) int {
	if w.Prefix != p.prefix {
		return cmp.Compare(w.Prefix, p.prefix)
	}
	return bytes.Compare(fs.key(w), p.key)
}

// lowerBound returns the offset of the first record of segment s whose key is
// not below the probe's, the file's length when there is none: the block
// before the first head not below it holds that record, or ends right before
// it.
func (r *SortedRun) lowerBound(s int, p probe) int {
	blocks, data := r.segs[s].blocks, r.files[s]
	j, _ := slices.BinarySearchFunc(blocks, p, func(b block, p probe) int { return r.files.order(b.head, p) })
	if j == 0 {
		return 0
	}
	off, end := int(blocks[j-1].head.Pos), len(data)
	if j < len(blocks) {
		end = int(blocks[j].head.Pos)
	}
	counted := r.counts == countInState
	for off < end {
		n := keyLen(data[off:])
		if bytes.Compare(data[off:off+n], p.key) >= 0 {
			return off
		}
		off = recordEnd(data, off, n, counted)
	}
	return end
}

// part is a stretch of one segment that a merge has not yet yielded: its
// next record, which is the last of its key's, is head, and the record after
// that starts at next.
type part struct {
	data      []byte
	off, end  int // of head, and where the stretch ends
	next      int
	head      row
	file      int
	dups      bool
	counted   bool
	exhausted bool
}

// load reads the record at p.off, skipping to the last record of its key.
func (p *part) load() {
	if p.exhausted = p.off >= p.end; p.exhausted {
		return
	}
	n := keyLen(p.data[p.off:])
	p.next = recordEnd(p.data, p.off, n, p.counted)
	for p.dups && p.next < p.end {
		m := keyLen(p.data[p.next:])
		if !bytes.Equal(p.data[p.next:p.next+m], p.data[p.off:p.off+n]) {
			break
		}
		p.off, p.next = p.next, recordEnd(p.data, p.next, m, p.counted)
	}
	p.head = row{Prefix: keyPrefix(p.data, p.off, n), Pos: uint32(p.off), Tag: uint32(n)<<16 | uint32(p.file)}
}

// merger yields the records of a run's segments in ascending key order. It
// walks the span directory a cluster at a time — a maximal run of spans each
// of which starts at or below the reach of those before it, so that no key
// of one cluster is in another — clipped to the stretches it merges: a lone
// span is read front to back, and the spans of a larger cluster are merged
// by mr's loser tree over their next records, so a record costs O(log spans)
// whatever the reducer count, and nothing where no two files' stretches
// overlap, as in an SP-Cube job's.
type merger struct {
	run      *SortedRun
	from, to []int
	span     int    // where the next cluster starts
	parts    []part // the current cluster's stretches, in segment order
	tree     mr.LoserTree
}

// merge starts a merge at the first key not below from (nil: the first key).
func (r *SortedRun) merge(from []byte) *merger {
	starts, ends := make([]int, len(r.segs)), make([]int, len(r.segs))
	p := newProbe(from)
	for s := range r.segs {
		if from != nil {
			starts[s] = r.lowerBound(s, p)
		}
		ends[s] = len(r.files[s])
	}
	return r.newMerger(starts, ends)
}

// newMerger starts a merge of the stretches [from[s], to[s]) of the run's
// segments.
func (r *SortedRun) newMerger(from, to []int) *merger {
	return &merger{run: r, from: from, to: to}
}

// nextCluster loads the stretches of the next cluster that has a record in
// the merge, and reports whether there was one.
func (m *merger) nextCluster() bool {
	r, counted := m.run, m.run.counts == countInState
	for m.span < len(r.spans) {
		i, j := m.span, m.span+1
		for j < len(r.spans) && r.files.compare(r.spans[j-1].reach, r.spans[j].first) >= 0 {
			j++
		}
		m.span = j
		m.parts = m.parts[:0]
		for _, sp := range r.spans[i:j] {
			s, data := sp.seg, r.files[sp.seg]
			p := part{data: data, file: s, dups: r.segs[s].dups, counted: counted,
				off: max(int(sp.first.Pos), m.from[s]),
				end: min(recordEnd(data, int(sp.last.Pos), int(sp.last.Tag>>16), counted), m.to[s])}
			if p.load(); !p.exhausted {
				m.parts = append(m.parts, p)
			}
		}
		if len(m.parts) > 1 {
			slices.SortFunc(m.parts, func(a, b part) int { return cmp.Compare(a.file, b.file) })
			m.tree = mr.NewLoserTree(len(m.parts), m.beats)
		}
		if len(m.parts) > 0 {
			return true
		}
	}
	return false
}

// beats reports whether stretch a's next record precedes stretch b's:
// drained stretches lose to live ones, equal keys go to the lower segment.
func (m *merger) beats(a, b int) bool {
	switch pa, pb := &m.parts[a], &m.parts[b]; {
	case pa.exhausted:
		return false
	case pb.exhausted:
		return true
	default:
		if c := m.run.files.compare(pa.head, pb.head); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// next returns the record of the next distinct key. Equal keys win in segment
// order, so the record of the last segment holding a key is the one returned.
func (m *merger) next() (row, bool) {
	for {
		switch {
		case len(m.parts) == 0:
			if !m.nextCluster() {
				return row{}, false
			}
			continue
		case len(m.parts) == 1:
			p := &m.parts[0]
			top := p.head
			p.off = p.next
			if p.load(); p.exhausted {
				m.parts = m.parts[:0]
			}
			return top, true
		}
		w := m.tree.Winner()
		if m.parts[w].exhausted {
			m.parts = m.parts[:0]
			continue
		}
		p := &m.parts[w]
		top := p.head
		p.off = p.next
		p.load()
		m.tree.Replay(m.beats)
		if q := &m.parts[m.tree.Winner()]; q.exhausted || m.run.files.compare(top, q.head) != 0 {
			return top, true
		}
	}
}

// find returns the record the run holds for the probe's key. The spans that
// may hold it start at or below it and end at or above it: the last span
// starting at or below it is bisected for, or stepped to from the previous
// key's when c, a cursor, has one below, and the spans before it are walked
// back while their reach is not below the key — for the disjoint stretches an
// SP-Cube job writes, no further. Each of them is searched (see searchSpan);
// of several segments holding the key, the last stands.
func (r *SortedRun) find(p probe, c *Cursor) (row, bool) {
	fs, spans := r.files, r.spans
	var j int
	if c != nil && c.span < len(spans) && fs.order(spans[c.span].first, p) <= 0 {
		for j = c.span; j+1 < len(spans) && fs.order(spans[j+1].first, p) <= 0; j++ {
		}
		c.span = j
	} else {
		j = sort.Search(len(spans), func(i int) bool { return fs.order(spans[i].first, p) > 0 }) - 1
		if c != nil && j >= 0 {
			c.span = j
		}
	}
	found, seg := row{}, -1
	for i := j; i >= 0 && fs.order(spans[i].reach, p) >= 0; i-- {
		sp := &spans[i]
		if sp.seg < seg || fs.order(sp.last, p) < 0 {
			continue
		}
		if off, ok := r.searchSpan(sp, p, c); ok {
			found, seg = row{Pos: uint32(off), Tag: uint32(len(p.key))<<16 | uint32(sp.seg)}, sp.seg
		}
	}
	return found, seg >= 0
}

// searchSpan returns the offset of the record of span sp that holds the
// probe's key, which is not below the span's first: it finds the last of the
// span's blocks whose head is not above the key — for a cursor whose previous
// search in the segment ended in a block of the span not above it, by
// doubling its step from there before it bisects, so a key g blocks on costs
// O(log g) comparisons, not O(log blocks) — and, unless the block's tags rule
// the key out, scans the block.
func (r *SortedRun) searchSpan(sp *span, p probe, c *Cursor) (int, bool) {
	fs, blocks := r.files, r.segs[sp.seg].blocks
	lo, hi := sp.lo, sp.hi // blocks[lo]'s head is not above the key
	if c != nil {
		if q := c.blocks[sp.seg]; q > lo && q < hi && fs.order(blocks[q].head, p) <= 0 {
			lo = q
			step := 1
			for lo+step < hi && fs.order(blocks[lo+step].head, p) <= 0 {
				lo += step
				step *= 2
			}
			hi = min(hi, lo+step)
		}
	}
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); fs.order(blocks[mid].head, p) <= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	if c != nil {
		c.blocks[sp.seg] = lo
	}
	if !blocks[lo].mayHold(p.tag) {
		return 0, false
	}
	return r.scanBlock(sp.seg, lo, p)
}

// scanBlock returns the offset of the last record of block j of segment s
// that holds the probe's key. A record's key is compared by its prefix first,
// which decides for nearly every record that is not the key's.
func (r *SortedRun) scanBlock(s, j int, p probe) (int, bool) {
	blocks, data := r.segs[s].blocks, r.files[s]
	end := len(data)
	if j+1 < len(blocks) {
		end = int(blocks[j+1].head.Pos)
	}
	found, counted, dups := -1, r.counts == countInState, r.segs[s].dups
	for off := int(blocks[j].head.Pos); off < end; {
		n := keyLen(data[off:])
		c := cmp.Compare(keyPrefix(data, off, n), p.prefix)
		if c == 0 {
			c = bytes.Compare(data[off:off+n], p.key)
		}
		if c > 0 {
			break
		}
		if c == 0 {
			if found = off; !dups {
				break
			}
		}
		off = recordEnd(data, off, n, counted)
	}
	return found, found >= 0
}

// Len returns the number of groups in the cube. In a disjoint run that is
// the record count; otherwise it takes a merge pass to find, made on the
// first call unless WriteCSV, which counts the rows it writes, has run.
func (r *SortedRun) Len() int {
	r.count.Do(func() {
		if r.disjoint {
			for _, seg := range r.segs {
				r.n += seg.records
			}
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
	// span is the span the previous search started from, blocks[s] the
	// block of segment s where the last search in it ended.
	span   int
	blocks []int
	buf    [binary.MaxVarintLen64]byte // a count job's state
}

// Cursor returns a cursor at the start of the run.
func (r *SortedRun) Cursor() *Cursor { return &Cursor{run: r, blocks: make([]int, len(r.segs))} }

// Seek returns the encoded aggregate state (as EachState has it) of the group
// with the given encoded key. The state aliases the run or the cursor, and
// holds until the next Seek.
func (c *Cursor) Seek(key []byte) ([]byte, bool) {
	w, ok := c.run.find(newProbe(key), c)
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
		mask, packed, _, _ = relation.ScanGroupKeyInto(packed, key) // collect checked this key
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
// output records, sorted and indexed as CollectRun sorts a job's. It is how a
// map reaches the code that reads runs — the CSV writer, the serving index.
func (r *Result) Run() (*SortedRun, error) {
	var data []byte
	for key, v := range r.Groups {
		data = appendFinal(append(append(data, key...), '\t'), v)
	}
	var s sorter
	sorted, seg, spans, err := s.sortFile("result", files{data}, 0, false)
	if err != nil {
		return nil, err
	}
	if sorted == nil {
		sorted = data
	}
	run := &SortedRun{d: r.D, files: files{sorted}, segs: []segment{seg}, par: runtime.GOMAXPROCS(0)}
	run.setSpans([][]span{spans})
	return run, nil
}

// WriteCSV writes the result exactly as a SortedRun of the same groups would.
func (r *Result) WriteCSV(w io.Writer, rel *relation.Relation, valueName string) error {
	run, err := r.Run()
	if err != nil {
		return err
	}
	return run.WriteCSV(w, rel, valueName)
}
