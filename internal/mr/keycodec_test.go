package mr

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// framedReader frames data through codec in blocks of the given size and
// returns a reader of a segment of that many records and enc decoded
// bytes. An enc larger than len(data) is a segment cut short.
func framedReader(data []byte, block int, codec blockcodec.Codec, records, enc int64) *segReader {
	var framed, scratch []byte
	for rest := data; len(rest) > 0; {
		n := min(block, len(rest))
		framed, scratch = blockcodec.AppendBlock(framed, codec, rest[:n], scratch)
		rest = rest[n:]
	}
	return newSegReader(spillSeg{f: bytes.NewReader(framed), length: int64(len(framed)),
		records: records, enc: enc, codec: codec})
}

// roundtrip encodes keys/vals as one front-coded segment and decodes it
// back through a reader of blocks of the given size.
func roundtrip(t *testing.T, keys []string, vals [][]byte, block int) {
	t.Helper()
	var buf []byte
	prev := ""
	for i, k := range keys {
		buf = appendSpillRecord(buf, prev, k, vals[i])
		prev = k
	}
	rr := framedReader(buf, block, blockcodec.Raw{}, int64(len(keys)), int64(len(buf)))
	for i := range keys {
		k, v, ok, err := rr.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("record %d: premature end", i)
		}
		if string(k) != keys[i] || !bytes.Equal(v, vals[i]) {
			t.Fatalf("record %d: got (%q, %q), want (%q, %q)", i, k, v, keys[i], vals[i])
		}
	}
	if _, _, ok, err := rr.next(); ok || err != nil {
		t.Fatalf("after last record: ok=%v err=%v, want exhausted", ok, err)
	}
}

func TestSpillRecordRoundtrip(t *testing.T) {
	keys := []string{
		"", "a", "aa", "aardvark", "aardwolf", "ab",
		strings.Repeat("cube", 100), strings.Repeat("cube", 100) + "!",
		"z",
	}
	vals := make([][]byte, len(keys))
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte(i)}, i*7%23)
	}
	vals[3] = nil // empty value mid-stream
	for _, block := range []int{16, 64, 4096} {
		roundtrip(t, keys, vals, block)
	}
}

func TestSpillRecordFrontCodingCompresses(t *testing.T) {
	// Sorted cube-style keys share long prefixes; the encoding must be
	// much smaller than storing keys whole.
	var whole, coded int
	var buf []byte
	prev := ""
	for i := 0; i < 100; i++ {
		key := "cuboid/ab/region-7/sku-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		whole += len(key)
		buf = appendSpillRecord(buf[:0], prev, key, nil)
		coded += len(buf)
		prev = key
	}
	if coded >= whole {
		t.Errorf("front coding did not compress: %d coded vs %d whole key bytes", coded, whole)
	}
}

func TestRecordReaderTruncated(t *testing.T) {
	buf := appendSpillRecord(nil, "", "hello", []byte("world"))
	for cut := 1; cut < len(buf); cut++ {
		rr := framedReader(buf[:len(buf)-cut], 16, blockcodec.Raw{}, 1, int64(len(buf)))
		if _, _, _, err := rr.next(); err == nil {
			t.Fatalf("truncated by %d bytes: expected error", cut)
		}
	}
}

// FuzzKeyCodec fuzzes the spill record codec from both ends. The input
// bytes are first treated as a corrupt segment framed as one block and
// decoded — as a whole segment, and as one cut short — and the reader must
// fail cleanly, never panic or over-read. Then they are carved into records,
// encoded, framed in blocks of 1 byte to MaxBlockSize (a size the first two
// input bytes choose) and decoded back, which must reproduce them exactly
// whatever the key shapes (shared prefixes, empty keys, binary values) and
// wherever the block boundaries cut them.
func FuzzKeyCodec(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("hello\x00world"))
	f.Add(appendSpillRecord(nil, "", "cuboid/ab/7", []byte("v")))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append([]byte{0, 2}, appendSpillRecord(nil, "", "cuboid/ab/7", []byte("value"))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Adversarial decode: claim a few records live in these bytes.
		one := data[:min(len(data), blockcodec.MaxBlockSize)]
		for _, enc := range []int64{int64(len(one)), math.MaxInt64} {
			rr := framedReader(one, blockcodec.MaxBlockSize, blockcodec.Raw{}, 4, enc)
			for {
				_, _, ok, err := rr.next()
				if err != nil || !ok {
					break
				}
			}
		}
		// Round trip: carve data into alternating key/value chunks.
		var keys []string
		var vals [][]byte
		for i := 0; i < len(data); {
			n := int(data[i])%7 + 1
			if i+n > len(data) {
				n = len(data) - i
			}
			keys = append(keys, string(data[i:i+n]))
			i += n
			m := 0
			if i < len(data) {
				m = int(data[i]) % 5
				if i+m > len(data) {
					m = len(data) - i
				}
			}
			vals = append(vals, data[i:i+m])
			i += m
		}
		var buf []byte
		prev := ""
		for i, k := range keys {
			buf = appendSpillRecord(buf, prev, k, vals[i])
			prev = k
		}
		block := blockcodec.MaxBlockSize
		if len(data) >= 2 {
			block = 1 + (int(data[0])<<8 | int(data[1]))
		}
		rr := framedReader(buf, block, blockcodec.Raw{}, int64(len(keys)), int64(len(buf)))
		for i := range keys {
			k, v, ok, err := rr.next()
			if err != nil || !ok {
				t.Fatalf("%d-byte blocks: record %d/%d: ok=%v err=%v", block, i, len(keys), ok, err)
			}
			if string(k) != keys[i] || !bytes.Equal(v, vals[i]) {
				t.Fatalf("%d-byte blocks: record %d: got (%q, %q), want (%q, %q)", block, i, k, v, keys[i], vals[i])
			}
		}
		if _, _, ok, err := rr.next(); ok || err != nil {
			t.Fatalf("%d-byte blocks: after last record: ok=%v err=%v, want exhausted", block, ok, err)
		}
	})
}

func TestRecordReaderBadPrefix(t *testing.T) {
	// First record claims a 5-byte shared prefix, but there is no previous
	// key: the reader must reject it rather than read garbage.
	var buf []byte
	buf = binary.AppendUvarint(buf, 5)
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 0)
	rr := framedReader(buf, 16, blockcodec.Raw{}, 1, int64(len(buf)))
	if _, _, _, err := rr.next(); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("expected prefix validation error, got %v", err)
	}
}

// TestRecordReaderStraddles: records whose varints run to two and three
// bytes, and whose key suffixes and values are longer than a 16-byte block,
// decode as written when every field crosses a block boundary and the
// segment's block boundaries fall anywhere — blocks of 1 byte up to the
// whole segment, raw and lz.
func TestRecordReaderStraddles(t *testing.T) {
	long := strings.Repeat("k", 300)
	keys := []string{"a", "ab", long, long + "x", long + "xy" + strings.Repeat("z", 20000), "b", "bc"}
	vals := [][]byte{
		{1}, nil, bytes.Repeat([]byte{2}, 130), {3, 4},
		bytes.Repeat([]byte{5}, 17000), bytes.Repeat([]byte{6}, 15), {7},
	}
	var seg []byte
	prev := ""
	for i, k := range keys {
		seg = appendSpillRecord(seg, prev, k, vals[i])
		prev = k
	}
	for _, codec := range []blockcodec.Codec{blockcodec.Raw{}, blockcodec.LZ{}} {
		for _, block := range []int{1, 2, 3, 7, 15, 16, 17, 100, 4096, blockcodec.MaxBlockSize} {
			rr := framedReader(seg, block, codec, int64(len(keys)), int64(len(seg)))
			for i := range keys {
				k, v, ok, err := rr.next()
				if err != nil || !ok {
					t.Fatalf("%s, %d-byte blocks: record %d: ok=%v err=%v", codec.Name(), block, i, ok, err)
				}
				if string(k) != keys[i] || !bytes.Equal(v, vals[i]) {
					t.Fatalf("%s, %d-byte blocks: record %d: got a %d-byte key and a %d-byte value, want %d and %d",
						codec.Name(), block, i, len(k), len(v), len(keys[i]), len(vals[i]))
				}
			}
			if _, _, ok, err := rr.next(); ok || err != nil {
				t.Fatalf("%s, %d-byte blocks: after the last record: ok=%v err=%v", codec.Name(), block, ok, err)
			}
		}
	}
}

// TestRecordReaderErrorTexts pins the error of every way a record can be cut
// short or malformed, alone in its segment and behind a 14-byte record, so
// that the broken field starts 2 bytes before the end of a 16-byte block.
// Each segment is cut short: its metadata claims 64 bytes more than it
// holds, so only a length past those is rejected before it is read.
func TestRecordReaderErrorTexts(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0xff}, 9), 0x02) // 2^64 and more
	huge := binary.AppendUvarint(nil, 1<<63)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"no record", nil, "mr: spill record prefix: EOF"},
		{"cut prefix", []byte{0x80}, "mr: spill record prefix: unexpected EOF"},
		{"cut suffix length", []byte{0x00, 0x85}, "mr: spill record suffix len: unexpected EOF"},
		{"cut value length", []byte{0x00, 0x01, 'a', 0xff}, "mr: spill record value len: unexpected EOF"},
		{"overlong prefix", overlong, "mr: spill record prefix: binary: varint overflows a 64-bit integer"},
		{"eleven-byte prefix", append(bytes.Repeat([]byte{0xff}, 10), 0x01), "mr: spill record prefix: binary: varint overflows a 64-bit integer"},
		{"overlong value length", append([]byte{0x00, 0x01, 'a'}, overlong...), "mr: spill record value len: binary: varint overflows a 64-bit integer"},
		{"cut key suffix", []byte{0x00, 0x05, 'a'}, "mr: spill record key suffix: unexpected EOF"},
		{"cut value", []byte{0x00, 0x01, 'a', 0x03, 'x'}, "mr: spill record value: unexpected EOF"},
		{"key suffix past the segment", []byte{0x00, 0xe8, 0x07, 'a'},
			"mr: spill record key suffix: length 1000 overruns the segment"},
		{"2^63-byte key suffix", append(append([]byte{0x00}, huge...), 0x01, 'v'),
			"mr: spill record key suffix: length 9223372036854775808 overruns the segment"},
		{"2^63-byte value", append([]byte{0x00, 0x01, 'a'}, huge...),
			"mr: spill record value: length 9223372036854775808 overruns the segment"},
	}
	lead := appendSpillRecord(nil, "", "0123456789", []byte{'v'})
	if len(lead) != 14 {
		t.Fatalf("the leading record is %d bytes, want 14", len(lead))
	}
	for _, c := range cases {
		rr := framedReader(c.data, 16, blockcodec.Raw{}, 1, int64(len(c.data))+64)
		if _, _, ok, err := rr.next(); ok || err == nil || err.Error() != c.want {
			t.Errorf("%s: ok=%v err=%v, want %q", c.name, ok, err, c.want)
		}
		behind := append(lead[:14:14], c.data...)
		rr = framedReader(behind, 16, blockcodec.Raw{}, 2, int64(len(behind))+64)
		if _, _, ok, err := rr.next(); !ok || err != nil {
			t.Fatalf("%s: the leading record: ok=%v err=%v", c.name, ok, err)
		}
		if _, _, ok, err := rr.next(); ok || err == nil || err.Error() != c.want {
			t.Errorf("%s behind a record: ok=%v err=%v, want %q", c.name, ok, err, c.want)
		}
	}
}
