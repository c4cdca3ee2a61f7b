package mr

import (
	"encoding/binary"
	"slices"
	"strings"
)

// This file is the sort-merge half of the engine's data plane: a stable
// key-prefix radix sort for the map side's per-reducer buckets and a
// loser-tree k-way merge for the reduce side. Together they reproduce
// Hadoop's actual shuffle structure (the cluster model of §2.3 assumes it):
// every map task sorts each of its per-reducer buckets once — per spill
// flush, and once more for what is left in memory — the shuffle hands a
// reducer its task-ordered sorted runs without flattening them, and the
// reducer consumes the runs through a single streaming merge — it never
// re-sorts its whole input.
//
// Both pieces are exactly order-equivalent to sort.SliceStable over the
// task-ordered concatenation of a reducer's input: the map-side sort is
// stable in emission order, and the merge breaks key ties by source index,
// i.e. by map-task order — the same tiebreak a stable sort of the
// concatenation produces.

// sortRows stably sorts one bucket's rows by the keys of the records they
// address in arena — the order sort.SliceStable with a key comparison
// gives — reusing s across calls. SortIndex orders the rows by key prefix;
// where prefixes are equal, the keys are equal too only if both are no
// longer than 8 bytes and equally long — "ab" and "ab\x00" share a prefix —
// so a run of equal prefixes that holds a longer key or two lengths is
// stably sorted by full key. A row's key length is its Tag's low 16 bits
// (0xffff, over 8, for a bigRecord). Group keys of a tag, a mask and a
// value or two fit in 8 bytes, so the prefix alone orders nearly every
// record.
func sortRows(rows []IndexRow, arena [][]byte, s *IndexScratch) {
	SortIndex(rows, s, func(run []IndexRow) {
		for _, r := range run {
			if r.Tag&0xffff != run[0].Tag&0xffff || r.Tag&0xffff > 8 {
				slices.SortStableFunc(run, func(a, b IndexRow) int {
					ka, _ := recordAt(arena, a)
					kb, _ := recordAt(arena, b)
					return strings.Compare(ka, kb)
				})
				return
			}
		}
	})
}

// IndexRow is one record's entry in a key-prefix index: a map attempt's
// output and a cube's sorted run both keep one. It holds no pointer, so
// SortIndex's passes move 16 bytes a record and the collector never scans
// a million of them. SortIndex reads only Prefix; the other two words are
// the index's own.
type IndexRow struct {
	Prefix uint64 // KeyPrefix of the record's key
	Pos    uint32 // where the record is: its arena address, its offset in a file
	Tag    uint32 // what else the index keeps of it, such as its key's and value's lengths
}

// IndexScratch is SortIndex's working memory, to reuse from call to call.
type IndexScratch struct {
	tmp  []IndexRow
	hist [8][256]uint32 // hist[k][b] counts the rows whose prefix byte k, from the least significant, is b
}

// SortIndex stably sorts rows by Prefix, in place, and then calls ties on
// every run of two or more rows whose prefixes are equal, which the prefix
// therefore does not order; ties may reorder its run, by full key.
//
// It is an LSD radix sort on the prefix's 8 bytes, through s.tmp. The
// passes skip every byte position whose digit is the same for all rows (the
// tag byte of a group key never varies within a bucket, nor do the
// zero-padding bytes of short keys), and, being stable, leave rows of equal
// prefix in their input order.
func SortIndex(rows []IndexRow, s *IndexScratch, ties func(run []IndexRow)) {
	n := len(rows)
	if n < 2 {
		return
	}
	s.tmp = slices.Grow(s.tmp[:0], n)[:n]
	s.hist = [8][256]uint32{}
	h := &s.hist
	for _, r := range rows {
		p := r.Prefix
		h[0][byte(p)]++
		h[1][byte(p>>8)]++
		h[2][byte(p>>16)]++
		h[3][byte(p>>24)]++
		h[4][byte(p>>32)]++
		h[5][byte(p>>40)]++
		h[6][byte(p>>48)]++
		h[7][byte(p>>56)]++
	}
	src, dst := rows, s.tmp
	for k := range h {
		shift := 8 * uint(k)
		count := &h[k]
		if count[byte(src[0].Prefix>>shift)] == uint32(n) {
			continue // every row has this digit
		}
		var off uint32
		for b, c := range count {
			count[b] = off
			off += c
		}
		for _, r := range src {
			d := byte(r.Prefix >> shift)
			dst[count[d]] = r
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &rows[0] {
		copy(rows, src) // an odd number of passes
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rows[hi].Prefix == rows[lo].Prefix {
			hi++
		}
		if hi-lo > 1 {
			ties(rows[lo:hi])
		}
		lo = hi
	}
}

// KeyPrefix returns key's first 8 bytes as a big-endian number, zero-padded.
// Zero padding keeps a key before every longer key it is a prefix of, so the
// prefix order never contradicts bytes.Compare: where two prefixes differ they
// decide. It is the key prefix of the map-side sort and of cube's sorted runs.
func KeyPrefix[K ~string | ~[]byte](key K) uint64 {
	var p [8]byte
	copy(p[:], key)
	return binary.BigEndian.Uint64(p[:])
}

// LoserTree is a k-way tournament over run indices 0..k-1 with a
// caller-supplied ordering: the core of the reduce-side shuffle merge and of
// cube's merge of a sorted run's segments.
//
// The tree is the classic 2k-slot tournament layout: leaf j sits at node
// k+j, internal node i holds the loser of the match between its subtrees,
// and the overall winner is kept at slot 0. The caller's beats(a, b) must
// report whether run a's current head precedes run b's; the convention for
// drained runs is to make them lose to live ones (acting as +∞ sentinels),
// so no special casing is needed as runs drain. beats must be a strict weak
// order — a key comparison with ties broken by run index is one — which is
// what lets a winner that beats the runner-up skip its replay. After
// consuming the
// winner's head element the caller advances that run's cursor and calls
// Replay, which replays one leaf-to-root path — log k comparisons, one while
// a run's stretch of heads lasts. beats is passed to each call rather than
// kept, so a tree costs one allocation.
type LoserTree struct {
	loser []int // loser[0] = overall winner; loser[1..k-1] = match losers
	win   []int // build scratch, kept so Reset does not allocate
	k     int
	next  int // the runner-up, -1 when not known
}

// NewLoserTree builds a tree over k runs and plays the initial tournament.
func NewLoserTree(k int, beats func(a, b int) bool) LoserTree {
	slots := make([]int, max(k, 1)+2*k)
	t := LoserTree{loser: slots[:max(k, 1)], win: slots[max(k, 1):], k: k}
	t.Reset(beats)
	return t
}

// Winner returns the index of the run whose head currently wins the
// tournament, or -1 for an empty tree. Whether that run still has elements
// is the caller's to check — a drained winner means every run is drained.
func (t *LoserTree) Winner() int {
	if t.k == 0 {
		return -1
	}
	return t.loser[0]
}

// Replay re-seats the winner after the caller advanced its run's cursor,
// replaying the winner's leaf-to-root path against the stored losers. A run
// that wins twice in a row may hold a stretch of heads: the tree then finds
// the runner-up — the best loser on the winner's path, second overall — and
// while the winner still beats it nothing moves, so each head of the
// stretch costs one comparison instead of log k.
func (t *LoserTree) Replay(beats func(a, b int) bool) {
	if t.k <= 1 {
		return
	}
	w := t.loser[0]
	if t.next >= 0 {
		if beats(w, t.next) {
			return
		}
		t.next = -1
	}
	won := w
	for i := (t.k + w) / 2; i >= 1; i /= 2 {
		if beats(t.loser[i], w) {
			t.loser[i], w = w, t.loser[i]
		}
	}
	t.loser[0] = w
	if w != won {
		return
	}
	for i := (t.k + w) / 2; i >= 1; i /= 2 {
		if t.next < 0 || beats(t.loser[i], t.next) {
			t.next = t.loser[i]
		}
	}
}

// Reset plays the initial tournament bottom-up, again after the caller
// rewound its run cursors.
func (t *LoserTree) Reset(beats func(a, b int) bool) {
	t.next = -1
	if t.k == 0 {
		return
	}
	if t.k == 1 {
		t.loser[0] = 0
		return
	}
	// win[i] is the winner of the subtree rooted at node i; leaves k..2k-1
	// hold the runs themselves.
	win := t.win
	for j := 0; j < t.k; j++ {
		win[t.k+j] = j
	}
	for i := t.k - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if beats(a, b) {
			win[i], t.loser[i] = a, b
		} else {
			win[i], t.loser[i] = b, a
		}
	}
	t.loser[0] = win[1]
}

// streamMerger k-way merges sorted runs — in-memory buckets and on-disk
// spill segments alike — through a LoserTree, holding only one head record
// per source: each next replays one leaf-to-root path (log k key
// comparisons) instead of re-scanning all run heads, and reduce memory is
// O(sources), not O(input). Key ties go to the lower source index, which,
// with sources ordered by map task (a task's spill segments in flush order
// before its final in-memory bucket), reproduces the stable task-ordered
// concatenation sort exactly — whether or not anything spilled.
type streamMerger struct {
	srcs []mergeSource
	// readers are the file-backed sources' segment readers, kept from one
	// open to the next: a reduce task's fan-in merges and its final merge
	// share one set.
	readers []*segReader
	tree    LoserTree
	cur     int // source whose head the last next handed out; -1 if none
	err     error
}

// mergeSource is one sorted run being merged. head is its current record,
// cur points at it, nil once drained: for a memory-backed run (rows over
// arena) head views the map attempt's arena, which no one rewrites, so no
// record is copied; for a file-backed one it views the reader's reused
// decode buffers. prefix is head's KeyPrefix, which decides most
// comparisons.
type mergeSource struct {
	rows   []IndexRow
	arena  [][]byte
	pos    int
	rd     *segReader
	cur    *Pair
	head   Pair
	prefix uint64
}

// streamSource is one sorted run handed to the merger: a memory-backed run
// (rows addressing records in arena, with raw = Σ pairBytes) or a
// file-backed one (seg).
type streamSource struct {
	rows  []IndexRow
	arena [][]byte
	raw   int64
	seg   *spillSeg
}

// size returns the run's record count and raw byte size from its metadata.
func (s streamSource) size() (records, raw int64) {
	if s.seg != nil {
		return s.seg.records, s.seg.raw
	}
	return int64(len(s.rows)), s.raw
}

// open points the merger at runs, which are read, never modified, and
// loads nothing: reset loads every source's first record. The file-backed
// sources take the merger's segment readers in turn, so every segment a
// merger reads shares the round's codec.
func (m *streamMerger) open(runs []streamSource) {
	m.srcs = slices.Grow(m.srcs[:0], len(runs))[:len(runs)]
	files := 0
	for i, r := range runs {
		m.srcs[i] = mergeSource{rows: r.rows, arena: r.arena}
		if r.seg != nil {
			if files == len(m.readers) {
				m.readers = append(m.readers, new(segReader))
			}
			m.srcs[i].rd, m.readers[files].seg = m.readers[files], *r.seg
			files++
		}
	}
	m.tree = NewLoserTree(len(runs), m.beats)
}

// reset rewinds every source to its start and loads its first record
// (reading a spill segment's first block from disk), making the merger
// reusable across task attempts. Each merge calls it once before its first
// next.
func (m *streamMerger) reset() {
	m.err = nil
	m.cur = -1
	for i := range m.srcs {
		s := &m.srcs[i]
		if s.rd != nil {
			s.rd.reset()
		} else {
			s.pos = 0
		}
		m.advance(i)
	}
	m.tree.Reset(m.beats)
}

// advance loads source i's next head record.
func (m *streamMerger) advance(i int) {
	s := &m.srcs[i]
	s.cur = nil
	if s.rd != nil {
		key, val, ok, err := s.rd.next()
		if err != nil && m.err == nil {
			m.err = err
		}
		if ok && err == nil {
			s.head, s.prefix, s.cur = Pair{Key: byteString(key), Val: val}, KeyPrefix(key), &s.head
		}
	} else if s.pos < len(s.rows) {
		row := s.rows[s.pos]
		s.pos++
		s.head.Key, s.head.Val = recordAt(s.arena, row)
		s.prefix, s.cur = row.Prefix, &s.head
	}
}

// beats reports whether source a's head precedes source b's: drained
// sources lose to live ones, equal keys go to the lower source index. Key
// prefixes decide where they differ; where they are equal and hold both
// keys whole, the keys differ only by trailing zero bytes, so the shorter
// one precedes, and no key byte is read.
func (m *streamMerger) beats(a, b int) bool {
	sa, sb := &m.srcs[a], &m.srcs[b]
	switch {
	case sa.cur == nil && sb.cur == nil:
		return a < b
	case sa.cur == nil:
		return false
	case sb.cur == nil:
		return true
	case sa.prefix != sb.prefix:
		return sa.prefix < sb.prefix
	}
	c := 0
	if la, lb := len(sa.cur.Key), len(sb.cur.Key); la <= 8 && lb <= 8 {
		c = la - lb
	} else {
		c = strings.Compare(sa.cur.Key, sb.cur.Key)
	}
	if c != 0 {
		return c < 0
	}
	return a < b
}

// next returns the globally next record, or nil when every source is
// drained (or a read failed — check err). The record must not be modified,
// and the Pair itself is the merger's, valid until the following next.
// stable reports whether its key and value view a memory-backed run's
// arena, which is immutable; otherwise they view a file-backed source's
// reused decode buffers and are valid only until the following next call,
// so a consumer that keeps them must copy.
func (m *streamMerger) next() (rec *Pair, stable bool) {
	if m.cur >= 0 {
		m.advance(m.cur)
		m.tree.Replay(m.beats)
	}
	w := m.tree.Winner()
	if w < 0 || m.srcs[w].cur == nil {
		m.cur = -1
		return nil, false
	}
	m.cur = w
	return m.srcs[w].cur, m.srcs[w].rd == nil
}
