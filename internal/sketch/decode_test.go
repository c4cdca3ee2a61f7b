package sketch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// header builds the fixed prefix of the wire format: magic, version, and
// the D/K/SampleN + alpha/beta block.
func header(d, k, sampleN int) []byte {
	buf := append([]byte(wireMagic), wireVersion)
	buf = binary.AppendUvarint(buf, uint64(d))
	buf = binary.AppendUvarint(buf, uint64(k))
	buf = binary.AppendUvarint(buf, uint64(sampleN))
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	return buf
}

// emptyBody appends 2^d empty skew sets and a nil-parts flag — the rest of
// a minimal valid document after header(d, k, n).
func emptyBody(buf []byte, d int) []byte {
	for i := 0; i < 1<<uint(d); i++ {
		buf = binary.AppendUvarint(buf, 0)
	}
	return append(buf, 0)
}

// TestDecodeRejectsMalformedWire is the regression test for Decode trusting
// the wire form: a corrupted or adversarial sketch file used to come back
// with skews/parts slices shorter than 2^D, panicking later inside cuboid
// lookups. Every malformed shape must be rejected with an error.
func TestDecodeRejectsMalformedWire(t *testing.T) {
	valid := emptyBody(header(2, 3, 10), 2)
	if _, err := Decode(valid); err != nil {
		t.Fatalf("baseline document does not decode: %v", err)
	}
	corrupt := func(mutate func([]byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "magic"},
		{"wrong version", corrupt(func(b []byte) []byte { b[4] = 99; return b }), "version"},
		{"dims beyond MaxDims", emptyBody(header(lattice.MaxDims+1, 2, 0), 0), "dimensions"},
		{"zero machines", emptyBody(header(2, 0, 0), 2), "machine count"},
		{"truncated header", valid[:8], "truncated"},
		{"truncated skew sets", valid[:len(valid)-3], "do not fit"},
		{"oversized skew count", corrupt(func(b []byte) []byte {
			b[len(b)-5] = 200 // first skew-set count: 200 keys with 4 bytes left
			return b
		}), "count"},
		{"bad partition flag", corrupt(func(b []byte) []byte { b[len(b)-1] = 7; return b }), "partition flag"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAA), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Decode(tc.data)
			if err == nil {
				t.Fatalf("Decode accepted malformed document (got sketch D=%d K=%d)", s.D, s.K)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBoundsAllocation: a header announcing 2^20 cuboids with no bytes
// behind it is refused before the 2^20 skew sets are made — a 24-byte input
// once cost 84 MB and 127 ms to reject — and partition lists that cannot fit
// behind the skew sets are refused before they are made.
func TestDecodeBoundsAllocation(t *testing.T) {
	huge := header(lattice.MaxDims, 1, 0)
	if len(huge) != 24 {
		t.Fatalf("header is %d bytes, want 24", len(huge))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Decode(huge)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "skew sets do not fit") {
		t.Errorf("Decode error %v, want one saying the skew sets do not fit", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("Decode allocated %d bytes to reject a %d-byte document", got, len(huge))
	}

	noLists := append(emptyBody(header(4, 2, 0), 4)[:24+16], 1, 0, 0) // flag 1, then 2 of 16 list counts
	if _, err := Decode(noLists); err == nil || !strings.Contains(err.Error(), "partition lists do not fit") {
		t.Errorf("Decode error %v, want one saying the partition lists do not fit", err)
	}
}

// FuzzSketchDecode: whatever the bytes, Decode returns a sketch or an error,
// never a panic, and a sketch it returns encodes to a fixed point — decoding
// and re-encoding its encoding gives the same bytes.
func FuzzSketchDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 3} {
		enc, err := BuildExact(cubetest.SkewedRelation(rng, 300, 3, 0.5, 3), k, 40).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(emptyBody(header(2, 3, 10), 2))
	f.Add(header(lattice.MaxDims, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		once, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(once)
		if err != nil {
			t.Fatalf("Decode of an encoding failed: %v", err)
		}
		twice, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("Encode∘Decode is not idempotent: %x then %x", once, twice)
		}
	})
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a sketch document")); err == nil {
		t.Error("Decode accepted garbage bytes")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("Decode accepted empty input")
	}
}

func TestDecodeAcceptsValidShapes(t *testing.T) {
	// A well-formed document with the nil-parts flag (a sketch that
	// recorded no partition elements) must still decode: nil parts means
	// "use fresh empty sets", not a malformed document.
	s, err := Decode(emptyBody(header(2, 3, 0), 2))
	if err != nil {
		t.Fatal(err)
	}
	if s.D != 2 || s.K != 3 {
		t.Errorf("decoded D=%d K=%d", s.D, s.K)
	}
	// Partition on an empty cuboid must not panic and routes to range 0.
	if got := s.Partition(3, []relation.Value{1, 2}); got != 0 {
		t.Errorf("partition = %d, want 0", got)
	}
}

// TestEncodeDeterministicAcrossHistory pins the property that motivated the
// hand-rolled wire format: the encoded size is a pure function of the
// sketch's content. The gob encoding it replaced assigned type IDs from a
// process-global counter, so the serialized sketch — a paper-reported
// figure — grew by a byte whenever unrelated code gob-encoded first (the
// proc backend's RPC layer did exactly that).
func TestEncodeDeterministicAcrossHistory(t *testing.T) {
	s := New(2, 3)
	s.SampleN = 7
	s.Alpha, s.Beta = 0.25, 8.5
	s.skews[1]["\x02\x04"] = struct{}{}
	s.parts = make([][][]relation.Value, 4)
	s.parts[2] = [][]relation.Value{{1, -2}, {3, 4}}
	a, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two encodes of the same sketch differ")
	}
	dec, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SampleN != 7 || dec.Alpha != 0.25 || dec.Beta != 8.5 {
		t.Errorf("round trip lost metadata: %+v", dec)
	}
	if _, ok := dec.skews[1]["\x02\x04"]; !ok {
		t.Error("round trip lost a skew key")
	}
	if len(dec.parts[2]) != 2 || dec.parts[2][0][1] != -2 {
		t.Errorf("round trip lost partition elements: %v", dec.parts[2])
	}
}
