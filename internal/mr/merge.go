package mr

import "strings"

// This file is the sort-merge half of the engine's data plane: a stable
// bottom-up merge sort for the map side's per-reducer buckets and a
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

// sortRun is the insertion-sort block size of sortPairsStable; blocks of
// this size are sorted in place before the merge passes start.
const sortRun = 16

// sortPairsStable stably sorts pairs by key — equivalent to
// sort.SliceStable with a key comparison, but monomorphic (no reflection
// swapper) and reusing scratch across calls. It returns the scratch slice,
// grown if needed, for the caller to keep.
func sortPairsStable(pairs, scratch []Pair) []Pair {
	n := len(pairs)
	if n < 2 {
		return scratch
	}
	// Insertion-sort blocks of sortRun (stable: shift only strictly
	// greater keys).
	for lo := 0; lo < n; lo += sortRun {
		hi := lo + sortRun
		if hi > n {
			hi = n
		}
		for i := lo + 1; i < hi; i++ {
			p := pairs[i]
			j := i
			for j > lo && pairs[j-1].Key > p.Key {
				pairs[j] = pairs[j-1]
				j--
			}
			pairs[j] = p
		}
	}
	if n <= sortRun {
		return scratch
	}
	if cap(scratch) < n {
		scratch = make([]Pair, n)
	}
	buf := scratch[:n]
	src, dst := pairs, buf
	for width := sortRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid >= n {
				// Lone tail run: carry it over unmerged.
				copy(dst[lo:n], src[lo:n])
				break
			}
			if hi > n {
				hi = n
			}
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
	return scratch
}

// mergeInto merges two sorted runs into dst (len(dst) == len(a)+len(b)),
// taking from a on equal keys (stability).
func mergeInto(dst, a, b []Pair) {
	i, j := 0, 0
	for k := range dst {
		if i < len(a) && (j >= len(b) || a[i].Key <= b[j].Key) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// loserTree is a k-way tournament over run indices 0..k-1 with a
// caller-supplied ordering: the core of the reduce-side shuffle merge.
//
// The tree is the classic 2k-slot tournament layout: leaf j sits at node
// k+j, internal node i holds the loser of the match between its subtrees,
// and the overall winner is kept at slot 0. The caller's beats(a, b) must
// report whether run a's current head precedes run b's; the convention for
// drained runs is to make them lose to live ones (acting as +∞ sentinels),
// so no special casing is needed as runs drain. After consuming the
// winner's head element the caller advances that run's cursor and calls
// Replay, which replays one leaf-to-root path — log k comparisons.
type loserTree struct {
	beats func(a, b int) bool
	loser []int // loser[0] = overall winner; loser[1..k-1] = match losers
	win   []int // build() scratch, kept so Reset() does not allocate
	k     int
}

// newLoserTree builds a tree over k runs and plays the initial tournament.
// beats reports whether run a's current head precedes run b's.
func newLoserTree(k int, beats func(a, b int) bool) *loserTree {
	t := &loserTree{
		beats: beats,
		loser: make([]int, max(k, 1)),
		win:   make([]int, 2*k),
		k:     k,
	}
	t.build()
	return t
}

// Reset replays the initial tournament, for reuse after the caller rewound
// its run cursors.
func (t *loserTree) Reset() { t.build() }

// Winner returns the index of the run whose head currently wins the
// tournament, or -1 for an empty tree. Whether that run still has elements
// is the caller's to check — a drained winner means every run is drained.
func (t *loserTree) Winner() int {
	if t.k == 0 {
		return -1
	}
	return t.loser[0]
}

// Replay re-seats the winner after the caller advanced its run's cursor,
// replaying the winner's leaf-to-root path against the stored losers.
func (t *loserTree) Replay() {
	if t.k == 0 {
		return
	}
	w := t.loser[0]
	for i := (t.k + w) / 2; i >= 1; i /= 2 {
		if t.beats(t.loser[i], w) {
			t.loser[i], w = w, t.loser[i]
		}
	}
	t.loser[0] = w
}

// build plays the initial tournament bottom-up.
func (t *loserTree) build() {
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
		if t.beats(a, b) {
			win[i], t.loser[i] = a, b
		} else {
			win[i], t.loser[i] = b, a
		}
	}
	t.loser[0] = win[1]
}

// streamMerger k-way merges sorted runs — in-memory buckets and on-disk
// spill segments alike — through a loserTree, holding only one head record
// per source: each next replays one leaf-to-root path (log k key
// comparisons) instead of re-scanning all run heads, and reduce memory is
// O(sources), not O(input). Key ties go to the lower source index, which,
// with sources ordered by map task (a task's spill segments in flush order
// before its final in-memory bucket), reproduces the stable task-ordered
// concatenation sort exactly — whether or not anything spilled.
type streamMerger struct {
	srcs []mergeSource
	tree *loserTree
	cur  int // source whose head the last next handed out; -1 if none
	err  error
	// hits/misses total the file-backed sources' read-ahead counters.
	hits, misses int64
}

// mergeSource is one sorted run being merged. cur points at its current
// head record, nil once drained: into pairs for a memory-backed run (no
// record is copied), at head for a file-backed one, where head views the
// reader's reused decode buffers.
type mergeSource struct {
	pairs []Pair
	pos   int
	rd    *segReader
	cur   *Pair
	head  Pair
}

// streamSource is one sorted run handed to the merger: a memory-backed run
// (pairs, with raw = Σ pairBytes) or a file-backed one (seg).
type streamSource struct {
	pairs []Pair
	raw   int64
	seg   *spillSeg
}

// size returns the run's record count and raw byte size from its metadata.
func (s streamSource) size() (records, raw int64) {
	if s.seg != nil {
		return s.seg.records, s.seg.raw
	}
	return int64(len(s.pairs)), s.raw
}

// newStreamMerger builds a merger over runs, which are read, never
// modified. File-backed sources are granted prefetchers out of
// prefetchBudget bytes, in source order (deterministic — which sources read
// ahead never depends on timing).
func newStreamMerger(runs []streamSource, prefetchBudget int64) *streamMerger {
	m := &streamMerger{srcs: make([]mergeSource, len(runs)), cur: -1}
	for i, r := range runs {
		if r.seg != nil {
			var grant int64
			if prefetchBudget >= prefetchSegBudget && r.seg.length >= 2*prefetchChunkSize {
				grant = prefetchSegBudget
				prefetchBudget -= grant
			}
			m.srcs[i].rd = newSegReader(*r.seg, grant, &m.hits, &m.misses)
		} else {
			m.srcs[i].pairs = r.pairs
		}
		m.advance(i)
	}
	m.tree = newLoserTree(len(m.srcs), m.beats)
	return m
}

// close releases every file source's read-ahead goroutine. Must run before
// the run files are closed; the merger is unusable afterwards.
func (m *streamMerger) close() {
	for i := range m.srcs {
		if m.srcs[i].rd != nil {
			m.srcs[i].rd.close()
		}
	}
}

// reset rewinds every source to its start (re-reading spill segments from
// disk), making the merger reusable across task attempts.
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
	m.tree.Reset()
}

// advance loads source i's next head record.
func (m *streamMerger) advance(i int) {
	s := &m.srcs[i]
	if s.rd != nil {
		key, val, ok, err := s.rd.next()
		if err != nil && m.err == nil {
			m.err = err
		}
		s.cur = nil
		if ok && err == nil {
			s.head = Pair{Key: byteString(key), Val: val}
			s.cur = &s.head
		}
		return
	}
	if s.pos >= len(s.pairs) {
		s.cur = nil
		return
	}
	s.cur = &s.pairs[s.pos]
	s.pos++
}

// beats reports whether source a's head precedes source b's: drained
// sources lose to live ones, equal keys go to the lower source index.
func (m *streamMerger) beats(a, b int) bool {
	sa, sb := &m.srcs[a], &m.srcs[b]
	switch {
	case sa.cur == nil && sb.cur == nil:
		return a < b
	case sa.cur == nil:
		return false
	case sb.cur == nil:
		return true
	}
	if c := strings.Compare(sa.cur.Key, sb.cur.Key); c != 0 {
		return c < 0
	}
	return a < b
}

// next returns the globally next record, or nil when every source is
// drained (or a read failed — check err). The record must not be modified.
// stable reports whether it is a memory-backed run's own Pair, whose key
// string and value slice are immutable; otherwise key and value view a
// file-backed source's reused decode buffers and are valid only until the
// following next call, so a consumer that keeps them must copy.
func (m *streamMerger) next() (rec *Pair, stable bool) {
	if m.cur >= 0 {
		m.advance(m.cur)
		m.tree.Replay()
	}
	w := m.tree.Winner()
	if w < 0 || m.srcs[w].cur == nil {
		m.cur = -1
		return nil, false
	}
	m.cur = w
	return m.srcs[w].cur, m.srcs[w].rd == nil
}
