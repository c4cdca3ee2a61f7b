// Package relation defines the tuple and relation model used throughout the
// SP-Cube implementation.
//
// A relation R(A1..Ad, B) has d dimension attributes and one numeric measure
// attribute B, matching the model of Milo & Altshuler (SIGMOD'16, §2.1).
// Dimension values are dictionary-encoded as int32 so that tuples are compact
// and comparisons are cheap; an optional per-column Dictionary maps encoded
// values back to their original strings for display.
package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Value is a dictionary-encoded dimension attribute value.
type Value = int32

// Tuple is a single row of a relation: d dimension values plus a measure.
type Tuple struct {
	Dims    []Value
	Measure int64
}

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	dims := make([]Value, len(t.Dims))
	copy(dims, t.Dims)
	return Tuple{Dims: dims, Measure: t.Measure}
}

// Schema names the attributes of a relation.
type Schema struct {
	DimNames    []string
	MeasureName string
}

// D returns the number of dimension attributes.
func (s Schema) D() int { return len(s.DimNames) }

// Relation is an in-memory relation: a schema, a slice of tuples, and an
// optional dictionary for the string form of dimension values.
type Relation struct {
	Schema Schema
	Tuples []Tuple
	Dict   *Dictionary

	// arena is the unused tail of the chunk the next appended row's Dims are
	// carved from: one allocation per chunk of rows rather than one per row.
	// Two copies of a Relation would carve the same memory, so it is never
	// copied by value (noCopy makes go vet say so).
	arena []Value
	_     noCopy
}

// noCopy marks a struct that must not be copied after first use; go vet's
// copylocks check recognises the Lock/Unlock pair.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// arenaChunk caps how many Values one arena chunk holds (256 KiB).
const arenaChunk = 1 << 16

// newDims returns a zeroed Dims slice for the next row. Its capacity is
// capped at its length, so appending to one row's Dims reallocates instead
// of running into its neighbour's.
func (r *Relation) newDims() []Value {
	d := r.D()
	if len(r.arena) < d {
		// Grow with the relation, like append: small relations stay small.
		r.arena = make([]Value, max(d, min(d*max(len(r.Tuples), 16), arenaChunk)))
	}
	dims := r.arena[:d:d]
	r.arena = r.arena[d:]
	return dims
}

// New creates an empty relation with the given dimension names and measure
// name, ready to accept string-valued rows via AppendStrings or encoded rows
// via Append.
func New(dimNames []string, measureName string) *Relation {
	names := make([]string, len(dimNames))
	copy(names, dimNames)
	return &Relation{
		Schema: Schema{DimNames: names, MeasureName: measureName},
		Dict:   NewDictionary(len(dimNames)),
	}
}

// D returns the number of dimension attributes.
func (r *Relation) D() int { return r.Schema.D() }

// N returns the number of tuples.
func (r *Relation) N() int { return len(r.Tuples) }

// Append adds an already-encoded tuple. The dims slice is copied.
func (r *Relation) Append(dims []Value, measure int64) {
	if len(dims) != r.D() {
		panic(fmt.Sprintf("relation: Append with %d dims, schema has %d", len(dims), r.D()))
	}
	cp := r.newDims()
	copy(cp, dims)
	r.Tuples = append(r.Tuples, Tuple{Dims: cp, Measure: measure})
}

// AppendStrings adds a row given as strings, dictionary-encoding each
// dimension value. It requires the relation to have been built with New.
func (r *Relation) AppendStrings(dims []string, measure int64) {
	if r.Dict == nil {
		panic("relation: AppendStrings on relation without dictionary")
	}
	if len(dims) != r.D() {
		panic(fmt.Sprintf("relation: AppendStrings with %d dims, schema has %d", len(dims), r.D()))
	}
	enc := r.newDims()
	for i, s := range dims {
		enc[i] = r.Dict.Encode(i, s)
	}
	r.Tuples = append(r.Tuples, Tuple{Dims: enc, Measure: measure})
}

// Restrict returns a new relation with only the dimension columns listed in
// cols (by index, in the given order). Tuples share no storage with r.
// It is used to cube over a subset of a wide relation's attributes, as the
// paper does for the 15-dimensional USAGOV dataset.
func (r *Relation) Restrict(cols []int) *Relation {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = r.Schema.DimNames[c]
	}
	out := &Relation{Schema: Schema{DimNames: names, MeasureName: r.Schema.MeasureName}}
	if r.Dict != nil {
		out.Dict = r.Dict.Restrict(cols)
	}
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		dims := make([]Value, len(cols))
		for j, c := range cols {
			dims[j] = t.Dims[c]
		}
		out.Tuples[i] = Tuple{Dims: dims, Measure: t.Measure}
	}
	return out
}

// DimString is the text of value v of dimension col (Dictionary.Text).
func (r *Relation) DimString(col int, v Value) string { return r.Dict.Text(col, v) }

// AppendDimCSV appends DimString(col, v) to dst as one CSV field, without
// building the string: an integer entry's digits need no quoting, a text
// entry gets AppendCSVField's.
func (r *Relation) AppendDimCSV(dst []byte, col int, v Value) []byte {
	if r.Dict != nil {
		switch n, text, isText, ok := r.Dict.cols[col].entry(v); {
		case isText:
			return AppendCSVField(dst, text)
		case ok:
			return strconv.AppendInt(dst, int64(n), 10)
		}
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// String renders a short description of the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(%s; %s)[n=%d]",
		strings.Join(r.Schema.DimNames, ","), r.Schema.MeasureName, len(r.Tuples))
}

// Dictionary maps string dimension values to compact int32 codes, per column.
// Codes are assigned in first-seen order starting at 0.
//
// An entry is one of two kinds, chosen per value. A value whose text is the
// canonical decimal form of an int32 — what strconv.Itoa prints: "0", or an
// optional '-', a digit 1-9 and further digits, within range — is stored as
// its parsed 4 bytes; Decode regenerates the text. Any other value ("007",
// "+5", "-0", "2147483648", "1e3", "", words) is stored as a string.
//
// A column finds a value's code through an index that holds codes alone: a
// power-of-two []uint32 table of code+1 per slot (0 is empty), probed
// linearly from the value's hash and never more than 3/4 full. A probe
// compares against the entry the slot's code names, so the table stores no
// key; to grow, it rehashes every code into a table twice the size. The hash
// is keyed by the dictionary's own random seed, for integers as well as text
// (see entryHash), so values a client chooses cannot force long probe chains.
// Clone shares the hash and copies four flat slices per column.
type Dictionary struct {
	hash *entryHash
	cols []dictColumn
}

// entryHash is a dictionary's hash of its entries. Text is hashed by
// hash/maphash under seed. An integer is mixed with three keys drawn from
// seed, as the Go runtime hashes a 4-byte map key where it lacks AES
// instructions. (maphash.Comparable is newer than the module's Go 1.22, and
// maphash.Bytes on the 4 bytes took 16 ns a hash against the mix's 3 ns on
// a 2-vCPU amd64 box.)
type entryHash struct {
	seed maphash.Seed
	k    [3]uint64
}

// newEntryHash draws a fresh seed and the integer keys from it.
func newEntryHash() *entryHash {
	h := &entryHash{seed: maphash.MakeSeed()}
	for i := range h.k {
		h.k[i] = maphash.String(h.seed, strconv.Itoa(i))
	}
	return h
}

// int is the hash of the integer entry n.
func (h *entryHash) int(n int32) uint64 {
	a := uint64(uint32(n))
	return mix(h.k[2]^4, mix(a^h.k[0], a^h.k[1]))
}

// mix folds the 128-bit product of a and b to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

type dictColumn struct {
	// index holds code+1 in each occupied slot and 0 in each empty one;
	// its length is a power of two, or 0 before the first entry.
	index []uint32
	// vals[code] is the entry's int32 value, or — when bit code of isText
	// is set — its index in texts.
	vals   []int32
	isText []uint64
	texts  []string
}

// NewDictionary creates a dictionary for d columns.
func NewDictionary(d int) *Dictionary {
	return &Dictionary{hash: newEntryHash(), cols: make([]dictColumn, d)}
}

// canonicalInt32 parses s when it is exactly the text strconv.Itoa prints
// for some int32. (strconv.ParseInt also takes "+5" and "007", and allocates
// an error for every value that is not a number; Encode runs per cell.)
func canonicalInt32[T string | []byte](s T) (int32, bool) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		i = 1
	}
	// "2147483648" has 10 digits, so an int64 holds any candidate. A leading
	// zero is canonical only as "0" itself ("-0" and "007" are not).
	if len(s) == i || len(s)-i > 10 || (s[i] == '0' && len(s) > 1) {
		return 0, false
	}
	var n int64
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int64(c)
	}
	if s[0] == '-' {
		n = -n
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		return 0, false
	}
	return int32(n), true
}

// Encode returns the code for s in column col, assigning a new code if s has
// not been seen before.
func (d *Dictionary) Encode(col int, s string) Value {
	c := &d.cols[col]
	if n, ok := canonicalInt32(s); ok {
		return c.encodeInt(d.hash, n)
	}
	v, slot := findText(c, maphash.String(d.hash.seed, s), s)
	if v >= 0 {
		return v
	}
	// Clone: s may be a substring of a longer string — a line of input —
	// which the entry would otherwise keep alive.
	return c.addText(d.hash, slot, strings.Clone(s))
}

// EncodeBytes is Encode(col, string(b)), but it builds the string only for
// a value it has not seen.
func (d *Dictionary) EncodeBytes(col int, b []byte) Value {
	c := &d.cols[col]
	if n, ok := canonicalInt32(b); ok {
		return c.encodeInt(d.hash, n)
	}
	v, slot := findText(c, maphash.Bytes(d.hash.seed, b), b)
	if v >= 0 {
		return v
	}
	return c.addText(d.hash, slot, string(b))
}

// encodeInt returns the code of the integer entry n, assigning the next one
// if n is new.
func (c *dictColumn) encodeInt(h *entryHash, n int32) Value {
	v, slot := c.findInt(h, n)
	if v >= 0 {
		return v
	}
	c.vals = append(c.vals, n)
	return c.place(h, slot)
}

// addText assigns the next code to the text entry s, a string of its own,
// whose probe for it ended at slot.
func (c *dictColumn) addText(h *entryHash, slot int, s string) Value {
	code := len(c.vals)
	c.vals = append(c.vals, int32(len(c.texts)))
	c.texts = append(c.texts, s)
	for code>>6 >= len(c.isText) {
		c.isText = append(c.isText, 0)
	}
	c.isText[code>>6] |= 1 << (uint(code) & 63)
	return c.place(h, slot)
}

// place indexes the entry just appended, at the empty slot its probe ended
// at, or grows the index when that would fill it past 3/4. It returns the
// entry's code.
func (c *dictColumn) place(h *entryHash, slot int) Value {
	code := len(c.vals) - 1
	if 4*len(c.vals) > 3*len(c.index) {
		c.rehash(h, max(8, 2*len(c.index)))
	} else {
		c.index[slot] = uint32(code) + 1
	}
	return Value(code)
}

// rehash rebuilds the index at size slots from the entries themselves.
func (c *dictColumn) rehash(h *entryHash, size int) {
	c.index = make([]uint32, size)
	mask := size - 1
	for code := range c.vals {
		i := int(c.hash(h, Value(code))) & mask
		for c.index[i] != 0 {
			i = (i + 1) & mask
		}
		c.index[i] = uint32(code) + 1
	}
}

// hash is the hash a probe for the entry of code v starts from.
func (c *dictColumn) hash(h *entryHash, v Value) uint64 {
	if c.textAt(v) {
		return maphash.String(h.seed, c.texts[c.vals[v]])
	}
	return h.int(c.vals[v])
}

// findInt probes the index for the integer entry n. It returns n's code, or
// -1 and the empty slot that ended the probe (-1 too when the index is
// empty).
//
// findInt and findText are one linear probe that differs only in its
// equality test. Written once, taking the test as a func value, it read 5-12 %
// slower on BenchmarkDictionaryEncode (slower in 10 of 12 alternated pairs,
// both columns): the probe does not inline, so each step made an indirect call.
func (c *dictColumn) findInt(h *entryHash, n int32) (Value, int) {
	if len(c.index) == 0 {
		return -1, -1
	}
	mask := len(c.index) - 1
	for i := int(h.int(n)) & mask; ; i = (i + 1) & mask {
		e := c.index[i]
		if e == 0 {
			return -1, i
		}
		if v := Value(e - 1); c.vals[v] == n && !c.textAt(v) {
			return v, i
		}
	}
}

// findText is findInt for the text entry s, whose hash is h.
func findText[T string | []byte](c *dictColumn, h uint64, s T) (Value, int) {
	if len(c.index) == 0 {
		return -1, -1
	}
	mask := len(c.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := c.index[i]
		if e == 0 {
			return -1, i
		}
		if v := Value(e - 1); c.textAt(v) && c.texts[c.vals[v]] == string(s) {
			return v, i
		}
	}
}

// textAt reports whether code v, an assigned one, is a text entry.
func (c *dictColumn) textAt(v Value) bool {
	w := int(v) >> 6
	return w < len(c.isText) && c.isText[w]&(1<<(uint(v)&63)) != 0
}

// Code returns the existing code for s in column col without assigning a
// new one.
func (d *Dictionary) Code(col int, s string) (Value, bool) {
	c := &d.cols[col]
	var v Value
	if n, ok := canonicalInt32(s); ok {
		v, _ = c.findInt(d.hash, n)
	} else {
		v, _ = findText(c, maphash.String(d.hash.seed, s), s)
	}
	if v < 0 {
		return 0, false
	}
	return v, true
}

// Text is what code v of column col reads as: its entry's text, or its
// decimal when it has no entry — as every code does in a nil dictionary, a
// relation's without one. Lookup is its inverse.
func (d *Dictionary) Text(col int, v Value) string {
	if d != nil {
		if s, ok := d.Decode(col, v); ok {
			return s
		}
	}
	return strconv.Itoa(int(v))
}

// GroupText writes a group's full-width text into dims, one string per
// dimension: the Text of the group's value where mask has the dimension, "*"
// where it is aggregated away. packed holds the group's values in dimension
// order. It returns dims. A nil dictionary writes decimals, as Text does.
func (d *Dictionary) GroupText(dims []string, mask uint32, packed []Value) []string {
	j := 0
	for i := range dims {
		if mask&(1<<uint(i)) == 0 {
			dims[i] = "*"
			continue
		}
		dims[i] = d.Text(i, packed[j])
		j++
	}
	return dims
}

// Lookup resolves the text s of column col to the code that reads as it
// (Text), or reports false when no code does. An entry's text names its
// code; the decimal of a code without an entry names that code. Nothing
// else names a code: not "007" or "-0", and not the decimal of a code that
// has an entry, which reads as its entry's text.
func (d *Dictionary) Lookup(col int, s string) (Value, bool) {
	if d != nil {
		if v, ok := d.Code(col, s); ok {
			return v, true
		}
	}
	n, ok := canonicalInt32(s)
	if !ok || d != nil && n >= 0 && int(n) < d.Cardinality(col) {
		return 0, false
	}
	return n, true
}

// entry returns what code v stands for: the text of a text entry, the value
// of an integer entry, or !ok for a code never assigned.
func (c *dictColumn) entry(v Value) (n int32, text string, isText, ok bool) {
	if v < 0 || int(v) >= len(c.vals) {
		return 0, "", false, false
	}
	if c.textAt(v) {
		return 0, c.texts[c.vals[v]], true, true
	}
	return c.vals[v], "", false, true
}

// Decode returns the string for code v in column col.
func (d *Dictionary) Decode(col int, v Value) (string, bool) {
	n, text, isText, ok := d.cols[col].entry(v)
	if !ok || isText {
		return text, ok
	}
	return strconv.Itoa(int(n)), true
}

// Cardinality returns the number of distinct values seen in column col.
func (d *Dictionary) Cardinality(col int) int { return len(d.cols[col].vals) }

// Clone returns a deep copy of the dictionary. Incremental ingestion uses
// it for copy-on-write: readers holding the old dictionary (a published
// cube index) never observe new codes being assigned.
func (d *Dictionary) Clone() *Dictionary {
	out := &Dictionary{hash: d.hash, cols: make([]dictColumn, len(d.cols))}
	for i, c := range d.cols {
		out.cols[i] = dictColumn{
			index:  slices.Clone(c.index),
			vals:   slices.Clone(c.vals),
			isText: slices.Clone(c.isText),
			texts:  slices.Clone(c.texts),
		}
	}
	return out
}

// Restrict returns a dictionary containing only the listed columns. The
// columns' entries are shared with d, not copied: it is a read-only view.
func (d *Dictionary) Restrict(cols []int) *Dictionary {
	out := &Dictionary{hash: d.hash, cols: make([]dictColumn, len(cols))}
	for i, c := range cols {
		out.cols[i] = d.cols[c]
	}
	return out
}
