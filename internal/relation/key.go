package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// A c-group (cube group, §2.1 of the paper) is identified by a cuboid — a
// bitmask over the dimension attributes — together with the values of the
// dimensions present in the mask. Group keys are encoded as compact byte
// strings (the mask followed by one value per present dimension, in
// ascending attribute order) so that they can serve directly as MapReduce
// shuffle keys and so that intermediate-data byte accounting is exact.
//
// Each number is a big-endian prefix varint: the leading ones of its first
// byte give the count of bytes behind it — 0xxxxxxx, 10xxxxxx + 1 byte,
// 110xxxxx + 2 bytes, and so on to 11110xxx + 4 — and the rest of the bits
// hold the number, most significant first, in the fewest bytes that fit it.
// n bytes carry 7n bits, as a uvarint's do, so a key is as long as it would
// be in uvarints; but a shorter number sorts before a longer one and equal
// lengths sort by value, so keys compare as bytes exactly as ComparePacked
// compares their values within a cuboid, and all the keys of a cuboid are
// one contiguous range. Values are written zigzagged (zig), and
// ComparePacked orders them the same way: numerically when non-negative, as
// every Dictionary code is, with a negative raw value v just after |v|-1.

// zig/zag encoding keeps negative dictionary codes (not produced by the
// Dictionary, but allowed for raw integer data) compact.
func zig(v Value) uint32 { return uint32((v << 1) ^ (v >> 31)) }
func zag(u uint32) Value { return Value(u>>1) ^ -Value(u&1) }

// appendKeyNum appends x as a prefix varint. Its one-byte case, which masks
// and small codes take, inlines into the callers.
func appendKeyNum(b []byte, x uint32) []byte {
	if x < 1<<7 {
		return append(b, byte(x))
	}
	return appendAnyKeyNum(b, x)
}

// appendAnyKeyNum is appendKeyNum, out of line.
func appendAnyKeyNum(b []byte, x uint32) []byte {
	switch {
	case x < 1<<7:
		return append(b, byte(x))
	case x < 1<<14:
		return append(b, 0x80|byte(x>>8), byte(x))
	case x < 1<<21:
		return append(b, 0xc0|byte(x>>16), byte(x>>8), byte(x))
	case x < 1<<28:
		return append(b, 0xe0|byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	default:
		return append(b, 0xf0, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	}
}

// keyNum reads a prefix varint at the start of b, returning it and its
// length, or a length of 0 when b does not start with one: too short, a
// first byte of five leading ones or more, a number longer than it needs to
// be or wider than 32 bits. Refusing the non-minimal forms makes the
// encoding a bijection, so that equal keys are equal bytes.
func keyNum(b []byte) (uint32, int) {
	if len(b) == 0 {
		return 0, 0
	}
	c := b[0]
	if c < 0x80 {
		return uint32(c), 1
	}
	n := bits.LeadingZeros8(^c) + 1
	if n > 5 || len(b) < n {
		return 0, 0
	}
	x := uint64(c & (0xff >> n))
	for _, c := range b[1:n] {
		x = x<<8 | uint64(c)
	}
	if x < 1<<(7*(n-1)) || x > math.MaxUint32 {
		return 0, 0
	}
	return uint32(x), n
}

// EncodeGroupKey encodes the c-group of tuple dims projected on mask.
// The buf slice is reused if large enough; the returned slice aliases it.
func EncodeGroupKey(buf []byte, mask uint32, dims []Value) []byte {
	return AppendGroupKey(buf[:0], mask, dims)
}

// AppendGroupKey appends the encoded c-group key of dims projected on mask
// to buf and returns the extended slice. Unlike EncodeGroupKey it does not
// reset buf, so callers can build prefixed keys (a tag byte followed by the
// group key) in one reusable scratch buffer.
func AppendGroupKey(buf []byte, mask uint32, dims []Value) []byte {
	buf = appendKeyNum(buf, mask)
	for m := mask; m != 0; m &= m - 1 {
		buf = appendKeyNum(buf, zig(dims[bits.TrailingZeros32(m)]))
	}
	return buf
}

// AppendCuboidPrefix appends the bytes every key of cuboid mask starts with,
// and no key of another cuboid does.
func AppendCuboidPrefix(buf []byte, mask uint32) []byte { return appendKeyNum(buf, mask) }

// GroupKey returns the encoded c-group key of dims projected on mask as a
// string (usable as a map key and MapReduce shuffle key).
func GroupKey(mask uint32, dims []Value) string {
	return string(EncodeGroupKey(nil, mask, dims))
}

// GroupKeyPacked encodes a group key from already-packed projected values
// (one per set bit of the mask, in ascending attribute order). It is the
// inverse of DecodeGroupKey.
func GroupKeyPacked(mask uint32, packed []Value) string {
	if bits.OnesCount32(mask) != len(packed) {
		panic(fmt.Sprintf("relation: GroupKeyPacked with %d values for mask %b", len(packed), mask))
	}
	buf := appendKeyNum(nil, mask)
	for _, v := range packed {
		buf = appendKeyNum(buf, zig(v))
	}
	return string(buf)
}

// DecodeGroupKey decodes a group key into its mask and the projected values
// (one per set bit of the mask, in ascending attribute order).
func DecodeGroupKey(key string) (mask uint32, vals []Value, err error) {
	mask, vals, n, err := ScanGroupKey([]byte(key))
	if err != nil {
		return 0, nil, err
	}
	if n != len(key) {
		return 0, nil, fmt.Errorf("relation: %d trailing bytes in group key", len(key)-n)
	}
	return mask, vals, nil
}

// ScanGroupKey parses a group key at the start of b (which may contain
// trailing data), returning the mask, the packed values, and the number of
// bytes consumed.
func ScanGroupKey(b []byte) (mask uint32, vals []Value, n int, err error) {
	return ScanGroupKeyInto(nil, b)
}

// ScanGroupKeyInto is ScanGroupKey decoding into buf, which is reused when
// large enough: walking many keys with one buffer allocates nothing. The
// returned values alias buf.
func ScanGroupKeyInto(buf []Value, b []byte) (mask uint32, vals []Value, n int, err error) {
	mask, n = keyNum(b)
	if n == 0 {
		return 0, nil, 0, fmt.Errorf("relation: bad group key mask")
	}
	cnt := bits.OnesCount32(mask)
	if buf == nil || cap(buf) < cnt { // nil too: the apex decodes to an empty slice, not nil
		buf = make([]Value, 0, cnt)
	}
	vals = buf[:0]
	for i := 0; i < cnt; i++ {
		u, vn := keyNum(b[n:])
		if vn == 0 {
			return 0, nil, 0, fmt.Errorf("relation: truncated group key (have %d of %d values)", i, cnt)
		}
		vals = append(vals, zag(u))
		n += vn
	}
	return mask, vals, n, nil
}

// GroupVals widens the packed values of a c-group of cuboid mask to a
// full-width dims slice of d values, with zero in the star positions, so
// that a key can be re-encoded for another cuboid by projection. It writes
// into buf, reused when large enough, and returns the widened slice.
func GroupVals(buf []Value, mask uint32, packed []Value, d int) []Value {
	if cap(buf) < d {
		buf = make([]Value, d)
	}
	buf = buf[:d]
	clear(buf)
	j := 0
	for m := mask; m != 0; m &= m - 1 {
		buf[bits.TrailingZeros32(m)] = packed[j]
		j++
	}
	return buf
}

// FormatGroup renders a c-group in the paper's notation, e.g.
// "(laptop,*,2012)". The rel may be nil, in which case numeric codes are
// printed.
func FormatGroup(rel *Relation, mask uint32, packed []Value, d int) string {
	var dict *Dictionary
	if rel != nil {
		dict = rel.Dict
	}
	return "(" + strings.Join(dict.GroupText(make([]string, d), mask, packed), ",") + ")"
}

// AppendValues appends vals to buf as a run of zigzag uvarints, one per
// value. It is the value encoding of a shuffled tuple's dimensions and of
// the SP-Sketch's skewed-group keys, whose bytes the sketch's encoded size
// (Figures 5c and 6c) counts.
func AppendValues(buf []byte, vals []Value) []byte {
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(zig(v)))
	}
	return buf
}

// DecodeValues reads len(vals) values written by AppendValues from the
// start of b into vals and returns the bytes after them.
func DecodeValues(vals []Value, b []byte) ([]byte, error) {
	for i := range vals {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("relation: truncated value %d of %d", i, len(vals))
		}
		vals[i] = zag(uint32(u))
		b = b[n:]
	}
	return b, nil
}

// EncodeTuple encodes a full tuple (all dims plus measure) for use as a
// MapReduce value. The buf slice is reused if large enough.
func EncodeTuple(buf []byte, t Tuple) []byte {
	return binary.AppendVarint(AppendValues(buf[:0], t.Dims), t.Measure)
}

// TupleLen returns len(EncodeTuple(nil, t)) without encoding: each value's
// zigzag form takes one byte per 7 bits it spans, and at least one.
func TupleLen(t Tuple) int {
	width := func(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }
	n := width(uint64(t.Measure<<1) ^ uint64(t.Measure>>63))
	for _, v := range t.Dims {
		n += width(uint64(zig(v)))
	}
	return n
}

// DecodeTuple decodes a tuple encoded by EncodeTuple, given the dimension
// count d.
func DecodeTuple(b []byte, d int) (Tuple, error) {
	return DecodeTupleInto(make([]Value, d), b)
}

// DecodeTupleInto decodes a tuple encoded by EncodeTuple, with len(dims)
// dimensions, into dims: the returned tuple's Dims is dims. Decoding many
// tuples into one arena allocates nothing per tuple.
func DecodeTupleInto(dims []Value, b []byte) (Tuple, error) {
	b, err := DecodeValues(dims, b)
	if err != nil {
		return Tuple{}, err
	}
	m, n := binary.Varint(b)
	if n <= 0 {
		return Tuple{}, fmt.Errorf("relation: truncated tuple measure")
	}
	return Tuple{Dims: dims, Measure: m}, nil
}

// CompareProjected compares tuples a and b lexicographically with respect to
// the cuboid mask (the <_C order of §4.1): only dimensions present in mask
// participate, in ascending attribute order. Values compare as ComparePacked
// compares them.
func CompareProjected(a, b []Value, mask uint32) int {
	for m := mask; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); a[i] != b[i] {
			return compareValues(a[i], b[i])
		}
	}
	return 0
}

// ComparePacked compares two packed projections (as stored in the SP-Sketch
// partition-element lists) lexicographically: the order their group keys
// have as bytes. Non-negative values — every code a Dictionary makes — compare
// as numbers; a negative raw value compares by its zigzag form, so that -1
// falls between 0 and 1, -2 between 1 and 2, and so on.
func ComparePacked(a, b []Value) int {
	for i := range a {
		if a[i] != b[i] {
			return compareValues(a[i], b[i])
		}
	}
	return 0
}

// compareValues orders two distinct values by their zigzag forms.
func compareValues(a, b Value) int {
	if zig(a) < zig(b) {
		return -1
	}
	return 1
}

// Project packs the mask-dimensions of dims into a fresh slice, in ascending
// attribute order.
func Project(dims []Value, mask uint32) []Value {
	out := make([]Value, 0, bits.OnesCount32(mask))
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, dims[bits.TrailingZeros32(m)])
	}
	return out
}

// ProjectInto is Project with a caller-provided buffer.
func ProjectInto(buf []Value, dims []Value, mask uint32) []Value {
	buf = buf[:0]
	for m := mask; m != 0; m &= m - 1 {
		buf = append(buf, dims[bits.TrailingZeros32(m)])
	}
	return buf
}
