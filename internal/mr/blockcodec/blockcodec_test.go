package blockcodec

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// codecs returns every registered codec.
func codecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
		cs = append(cs, c)
	}
	return cs
}

func TestByName(t *testing.T) {
	c, err := ByName("")
	if err != nil || c.Name() != "raw" {
		t.Fatalf("ByName(\"\") = %v, %v; want raw", c, err)
	}
	if _, err := ByName("zstd"); err == nil {
		t.Fatal("ByName(\"zstd\") did not fail")
	}
}

// testPayloads is a grab bag of adversarial payload shapes: empty-ish,
// incompressible, runs, short periods (overlapping matches), and
// front-coded-looking record streams.
func testPayloads() [][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 3000)
	rng.Read(random)
	big := make([]byte, MaxBlockSize)
	for i := range big {
		big[i] = byte(i / 100)
	}
	return [][]byte{
		{0},
		{1, 2, 3},
		[]byte("abcd"),
		bytes.Repeat([]byte{'x'}, 300),   // period 1: overlap copy
		bytes.Repeat([]byte("ab"), 200),  // period 2
		bytes.Repeat([]byte("abc"), 100), // period 3
		bytes.Repeat([]byte("0123456789abcde"), 99), // period 15
		// Short overlapping matches at offsets 1, 2 and 3, each followed by
		// literals: a match shorter than twice its offset, then longer.
		[]byte("-qqqqq=rsrsrs+tuvtuvt*qqqqqqqqqq/rsrsrsrsrsr.tuvtuvtuvtuvtu!"),
		random,
		append(bytes.Repeat([]byte("key:000"), 64), random[:100]...),
		[]byte(strings.Repeat("\x02\x01a\x08count=1", 500)), // record-ish
		big,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range codecs(t) {
		for i, payload := range testPayloads() {
			enc := c.Encode(nil, payload)
			dec, err := c.Decode(nil, enc, len(payload))
			if err != nil {
				t.Fatalf("%s payload %d: decode: %v", c.Name(), i, err)
			}
			if !bytes.Equal(dec, payload) {
				t.Fatalf("%s payload %d: round trip mismatch (%d -> %d -> %d bytes)",
					c.Name(), i, len(payload), len(enc), len(dec))
			}
		}
	}
}

// TestLZOverlappingMatches: a match that overlaps its own output repeats
// the last offset bytes. At offsets 1, 2 and 3, and at lengths short of,
// at and past multiples of the offset and the 18 bytes a token's match
// nibble holds, a hand-built token decodes — behind earlier output in dst —
// to what a byte-at-a-time copy makes, and that output survives the
// encoder's own round trip.
func TestLZOverlappingMatches(t *testing.T) {
	for offset := 1; offset <= 3; offset++ {
		for _, matchLen := range []int{4, 5, 6, 7, 17, 18, 19, 300} {
			lit := []byte("xyz")[:offset]
			want := append([]byte(nil), lit...)
			for i := 0; i < matchLen; i++ {
				want = append(want, want[len(want)-offset])
			}
			got, err := LZ{}.Decode([]byte("earlier"), lzEmit(nil, lit, matchLen, offset), len(want))
			if err != nil || string(got) != "earlier"+string(want) {
				t.Fatalf("offset %d, length %d: decoded %q, %v; want %q", offset, matchLen, got, err, "earlier"+string(want))
			}
			dec, err := LZ{}.Decode(nil, LZ{}.Encode(nil, want), len(want))
			if err != nil || !bytes.Equal(dec, want) {
				t.Fatalf("offset %d, length %d: round trip %q, %v; want %q", offset, matchLen, dec, err, want)
			}
		}
	}
}

func TestLZCompresses(t *testing.T) {
	payload := []byte(strings.Repeat("\x02\x01a\x08count=1", 500))
	enc := LZ{}.Encode(nil, payload)
	if len(enc)*2 > len(payload) {
		t.Fatalf("lz encoded %d bytes to %d; want at least 2x reduction on a repetitive payload",
			len(payload), len(enc))
	}
}

// TestFramedStream frames several blocks and streams them back through
// Reader, for every codec.
func TestFramedStream(t *testing.T) {
	for _, c := range codecs(t) {
		var want, framed, scratch []byte
		for _, payload := range testPayloads() {
			want = append(want, payload...)
			framed, scratch = AppendAll(framed, c, payload, scratch)
		}
		got, err := io.ReadAll(NewReader(bytes.NewReader(framed), c))
		if err != nil {
			t.Fatalf("%s: stream read: %v", c.Name(), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed %d bytes, want %d", c.Name(), len(got), len(want))
		}
		// Block hands out the same bytes a whole block at a time.
		r := NewReader(bytes.NewReader(framed), c)
		got = got[:0]
		for {
			block, err := r.Block()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: block %d: %v", c.Name(), len(got), err)
			}
			if len(block) > DefaultBlockSize {
				t.Fatalf("%s: a %d-byte block", c.Name(), len(block))
			}
			got = append(got, block...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Block returned %d bytes, want %d", c.Name(), len(got), len(want))
		}
	}
}

// TestReaderReset reuses one Reader across streams.
func TestReaderReset(t *testing.T) {
	c := LZ{}
	a, _ := AppendAll(nil, c, []byte("first stream"), nil)
	b, _ := AppendAll(nil, c, bytes.Repeat([]byte("second"), 50), nil)
	r := NewReader(bytes.NewReader(a), c)
	if got, err := io.ReadAll(r); err != nil || string(got) != "first stream" {
		t.Fatalf("first read: %q, %v", got, err)
	}
	r.Reset(bytes.NewReader(b))
	if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("second"), 50)) {
		t.Fatalf("reset read: %d bytes, %v", len(got), err)
	}
}

// recordingReader remembers every buffer its Read calls filled.
type recordingReader struct {
	src   io.Reader
	reads [][]byte
}

func (r *recordingReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	r.reads = append(r.reads, p[:n])
	return n, err
}

// TestRawBlockIsThePayload: a raw block is served as the checked payload
// the Reader read from its source, not as a copy of it. A 64 KiB payload is
// larger than the source buffer, so its tail is read straight into the
// payload buffer; the tail of every block served must lie in a buffer the
// source filled.
func TestRawBlockIsThePayload(t *testing.T) {
	payload := make([]byte, 3*MaxBlockSize)
	rand.New(rand.NewSource(3)).Read(payload)
	framed, _ := AppendAll(nil, Raw{}, payload, nil)
	src := &recordingReader{src: bytes.NewReader(framed)}
	r := NewReader(src, Raw{})
	for i := 0; ; i++ {
		block, err := r.Block()
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("%d blocks, want 3", i)
			}
			return
		}
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(block, payload[i*MaxBlockSize:(i+1)*MaxBlockSize]) {
			t.Fatalf("block %d: wrong bytes", i)
		}
		tail := uintptr(unsafe.Pointer(&block[len(block)-1]))
		read := false
		for _, p := range src.reads {
			if len(p) > 0 && tail >= uintptr(unsafe.Pointer(&p[0])) && tail <= uintptr(unsafe.Pointer(&p[len(p)-1])) {
				read = true
			}
		}
		if !read {
			t.Fatalf("block %d is a copy of the payload read from the source", i)
		}
	}
}

// TestTruncatedStream asserts every proper prefix of a framed stream fails
// with an error — never a silent short read, never a panic.
func TestTruncatedStream(t *testing.T) {
	for _, c := range codecs(t) {
		framed, _ := AppendAll(nil, c, []byte(strings.Repeat("payload ", 40)), nil)
		want, _ := io.ReadAll(NewReader(bytes.NewReader(framed), c))
		for cut := 1; cut < len(framed); cut++ {
			got, err := io.ReadAll(NewReader(bytes.NewReader(framed[:cut]), c))
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: prefix %d/%d read %d bytes with nil error", c.Name(), cut, len(framed), len(got))
			}
		}
	}
}

// TestCorruptedStream flips one byte at every position and requires the
// Reader to either error out or (for flips in an unread region) still never
// return wrong bytes without an error. CRC makes a silent wrong read
// impossible; spot-check every position.
func TestCorruptedStream(t *testing.T) {
	for _, c := range codecs(t) {
		payload := []byte(strings.Repeat("the quick brown fox ", 30))
		framed, _ := AppendAll(nil, c, payload, nil)
		for i := range framed {
			mut := append([]byte(nil), framed...)
			mut[i] ^= 0x40
			got, err := io.ReadAll(NewReader(bytes.NewReader(mut), c))
			if err == nil && !bytes.Equal(got, payload) {
				t.Fatalf("%s: flipped byte %d: wrong data with nil error", c.Name(), i)
			}
		}
	}
}

// FuzzBlockCodec is the exhaustive round-trip fuzzer of the tentpole: for
// every codec, (1) any payload must survive encode -> frame -> stream-read
// byte-for-byte, and (2) the fuzz input interpreted as a framed stream —
// truncated blocks, garbage headers, bad CRCs — must decode or error, never
// panic, and a nil error must never accompany wrong bytes.
func FuzzBlockCodec(f *testing.F) {
	for _, payload := range testPayloads() {
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Names() {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			payload := data
			if len(payload) > MaxBlockSize {
				payload = payload[:MaxBlockSize]
			}
			framed, _ := AppendAll(nil, c, payload, nil)
			got, err := io.ReadAll(NewReader(bytes.NewReader(framed), c))
			if err != nil {
				t.Fatalf("%s: round trip of %d bytes: %v", name, len(payload), err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s: round trip of %d bytes returned %d different bytes", name, len(payload), len(got))
			}
			// Adversarial leg: the raw fuzz input as a framed stream.
			_, _ = io.ReadAll(NewReader(bytes.NewReader(data), c))
			// And as a bare block payload.
			_, _ = c.Decode(nil, data, len(data)%(MaxBlockSize+1))
		}
	})
}
