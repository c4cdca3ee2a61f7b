package relation

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// A c-group (cube group, §2.1 of the paper) is identified by a cuboid — a
// bitmask over the dimension attributes — together with the values of the
// dimensions present in the mask. Group keys are encoded as compact byte
// strings (uvarint mask followed by one uvarint per present dimension, in
// ascending attribute order) so that they can serve directly as MapReduce
// shuffle keys and so that intermediate-data byte accounting is exact.

// zig/zag encoding keeps negative dictionary codes (not produced by the
// Dictionary, but allowed for raw integer data) compact.
func zig(v Value) uint64 { return uint64(uint32((v << 1) ^ (v >> 31))) }
func zag(u uint64) Value { x := uint32(u); return Value(x>>1) ^ -Value(x&1) }

// EncodeGroupKey encodes the c-group of tuple dims projected on mask.
// The buf slice is reused if large enough; the returned slice aliases it.
func EncodeGroupKey(buf []byte, mask uint32, dims []Value) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(mask))
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		buf = binary.AppendUvarint(buf, zig(dims[i]))
	}
	return buf
}

// AppendGroupKey appends the encoded c-group key of dims projected on mask
// to buf and returns the extended slice. Unlike EncodeGroupKey it does not
// reset buf, so callers can build prefixed keys (a tag byte followed by the
// group key) in one reusable scratch buffer.
func AppendGroupKey(buf []byte, mask uint32, dims []Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(mask))
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		buf = binary.AppendUvarint(buf, zig(dims[i]))
	}
	return buf
}

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
	buf := binary.AppendUvarint(nil, uint64(mask))
	for _, v := range packed {
		buf = binary.AppendUvarint(buf, zig(v))
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
	m, mn := binary.Uvarint(b)
	if mn <= 0 {
		return 0, nil, 0, fmt.Errorf("relation: bad group key mask")
	}
	mask = uint32(m)
	n = mn
	cnt := bits.OnesCount32(mask)
	if buf == nil || cap(buf) < cnt { // nil too: the apex decodes to an empty slice, not nil
		buf = make([]Value, 0, cnt)
	}
	vals = buf[:0]
	for i := 0; i < cnt; i++ {
		u, vn := binary.Uvarint(b[n:])
		if vn <= 0 {
			return 0, nil, 0, fmt.Errorf("relation: truncated group key (have %d of %d values)", i, cnt)
		}
		vals = append(vals, zag(u))
		n += vn
	}
	return mask, vals, n, nil
}

// GroupVals expands the packed projected values of a group key back to a
// full-width dims slice, with zero in star positions. The second return
// value reports, per attribute, whether it is present in the mask.
func GroupVals(mask uint32, packed []Value, d int) []Value {
	out := make([]Value, d)
	j := 0
	for m := mask; m != 0; m &= m - 1 {
		out[bits.TrailingZeros32(m)] = packed[j]
		j++
	}
	return out
}

// FormatGroup renders a c-group in the paper's notation, e.g.
// "(laptop,*,2012)". The rel may be nil, in which case numeric codes are
// printed.
func FormatGroup(rel *Relation, mask uint32, packed []Value, d int) string {
	parts := make([]string, d)
	j := 0
	for i := 0; i < d; i++ {
		if mask&(1<<uint(i)) != 0 {
			if rel != nil {
				parts[i] = rel.DimString(i, packed[j])
			} else {
				parts[i] = fmt.Sprintf("%d", packed[j])
			}
			j++
		} else {
			parts[i] = "*"
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// EncodeTuple encodes a full tuple (all dims plus measure) for use as a
// MapReduce value. The buf slice is reused if large enough.
func EncodeTuple(buf []byte, t Tuple) []byte {
	buf = buf[:0]
	for _, v := range t.Dims {
		buf = binary.AppendUvarint(buf, zig(v))
	}
	buf = binary.AppendVarint(buf, t.Measure)
	return buf
}

// DecodeTuple decodes a tuple encoded by EncodeTuple, given the dimension
// count d.
func DecodeTuple(b []byte, d int) (Tuple, error) {
	dims := make([]Value, d)
	for i := 0; i < d; i++ {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return Tuple{}, fmt.Errorf("relation: truncated tuple value at dim %d", i)
		}
		dims[i] = zag(u)
		b = b[n:]
	}
	m, n := binary.Varint(b)
	if n <= 0 {
		return Tuple{}, fmt.Errorf("relation: truncated tuple measure")
	}
	return Tuple{Dims: dims, Measure: m}, nil
}

// CompareProjected compares tuples a and b lexicographically with respect to
// the cuboid mask (the <_C order of §4.1): only dimensions present in mask
// participate, in ascending attribute order.
func CompareProjected(a, b []Value, mask uint32) int {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// ComparePacked compares two packed projections (as stored in the SP-Sketch
// partition-element lists) lexicographically.
func ComparePacked(a, b []Value) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
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
