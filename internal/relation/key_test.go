package relation

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// keyBoundaries are the values at which a key number changes length, in both
// directions, and the extremes of a Value.
var keyBoundaries = []int32{0, 63, 64, 127, 128, 1<<14 - 1, 1 << 14, 1 << 21, 1 << 28, math.MaxInt32, math.MinInt32}

// FuzzGroupKey: a group key decodes to the mask and values it was made of;
// it is as long as the uvarints of the mask and of every zigzagged value
// would be; keys compare as bytes as their masks compare as numbers and, in
// one mask, as ComparePacked compares their values; and any bytes that
// decode as a key are the encoding of what they decode to.
func FuzzGroupKey(f *testing.F) {
	for i, v := range keyBoundaries {
		w := keyBoundaries[(i+1)%len(keyBoundaries)]
		f.Add(uint32(0b1011), uint32(0b1011), v, w, v, -v, v, w, w, v, []byte(GroupKey(0b11, []Value{v, w})))
		f.Add(uint32(v), uint32(w), v, v, v, v, v, v, v, w, []byte{0xf0, 0, 0, 0, byte(v)})
	}
	f.Fuzz(func(t *testing.T, mask, mask2 uint32, a0, a1, a2, a3, b0, b1, b2, b3 int32, raw []byte) {
		// Full-width tuples: every attribute a mask can name has a value.
		var a, b [32]Value
		for i := range a {
			a[i] = []Value{a0, a1, a2, a3}[i%4]
			b[i] = []Value{b0, b1, b2, b3}[i%4]
		}
		ka := EncodeGroupKey(nil, mask, a[:])
		gotMask, vals, err := DecodeGroupKey(string(ka))
		if err != nil || gotMask != mask || !slices.Equal(vals, Project(a[:], mask)) {
			t.Fatalf("key %x of (%b, %v) decodes to (%b, %v), %v", ka, mask, Project(a[:], mask), gotMask, vals, err)
		}
		want := uvarintLen(uint64(mask))
		for _, v := range vals {
			want += uvarintLen(uint64(zig(v)))
		}
		if len(ka) != want {
			t.Fatalf("key %x of (%b, %v) is %d bytes, its uvarints %d", ka, mask, vals, len(ka), want)
		}
		if !bytes.HasPrefix(ka, AppendCuboidPrefix(nil, mask)) {
			t.Fatalf("key %x does not start with its cuboid's prefix", ka)
		}
		if got, want := bytes.Compare(ka, EncodeGroupKey(nil, mask, b[:])), ComparePacked(vals, Project(b[:], mask)); got != want {
			t.Fatalf("in cuboid %b, keys of %v and %v compare %d as bytes, %d as values", mask, vals, Project(b[:], mask), got, want)
		}
		if mask != mask2 {
			if got, want := bytes.Compare(ka, EncodeGroupKey(nil, mask2, b[:])), cmp.Compare(mask, mask2); got != want {
				t.Fatalf("keys of cuboids %b and %b compare %d as bytes", mask, mask2, got)
			}
		}

		if m, vals, n, err := ScanGroupKey(raw); err == nil {
			if re := GroupKeyPacked(m, vals); re != string(raw[:n]) {
				t.Fatalf("bytes %x decode to (%b, %v), which encode to %x", raw[:n], m, vals, re)
			}
		}
	})
}

func uvarintLen(x uint64) int { return len(binary.AppendUvarint(nil, x)) }

// TestComparePackedNegatives: negative raw values order by their zigzag form,
// between the non-negative ones, and a key's bytes agree.
func TestComparePackedNegatives(t *testing.T) {
	order := []Value{0, -1, 1, -2, 2, 63, -64, 64, math.MaxInt32, math.MinInt32}
	for i := 1; i < len(order); i++ {
		lo, hi := []Value{order[i-1]}, []Value{order[i]}
		if ComparePacked(lo, hi) != -1 || ComparePacked(hi, lo) != 1 || CompareProjected(lo, hi, 1) != -1 {
			t.Errorf("%d does not sort before %d", order[i-1], order[i])
		}
		if bytes.Compare([]byte(GroupKeyPacked(1, lo)), []byte(GroupKeyPacked(1, hi))) != -1 {
			t.Errorf("the key of %d does not sort before the key of %d", order[i-1], order[i])
		}
	}
}

// TestScanGroupKeyRejectsNonMinimal: a number written longer than it needs,
// or wider than 32 bits, is not a key.
func TestScanGroupKeyRejectsNonMinimal(t *testing.T) {
	for name, key := range map[string][]byte{
		"mask 1 in two bytes":        {0x80, 0x01},
		"value 5 in three bytes":     {0x01, 0xc0, 0x00, 0x05},
		"value 2^28-1 in five bytes": {0x01, 0xf0, 0x0f, 0xff, 0xff, 0xff},
		"a 33-bit value":             {0x01, 0xf1, 0x00, 0x00, 0x00, 0x00},
		"a six-byte form":            {0x01, 0xf8, 0, 0, 0, 0, 0},
	} {
		if m, vals, _, err := ScanGroupKey(key); err == nil {
			t.Errorf("%s: %x decodes to (%b, %v)", name, key, m, vals)
		}
	}
}
