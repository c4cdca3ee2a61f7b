package blockcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// LZ is a small LZ77-style byte codec in the LZ4 family, written against
// this package's block framing: match offsets are 16-bit, so it is only
// valid for payloads up to MaxBlockSize (the window is the whole block).
// Sorted, front-coded cube runs are highly self-similar — record framing
// varints and aggregate-state values repeat block-wide — which a greedy
// hash-table matcher captures well at near-memcpy decode speed.
//
// Token stream format. Each token is:
//
//	token     — 1 byte: high nibble literal length, low nibble match length
//	litExt    — if the literal nibble is 15: extension bytes, each 0..255
//	            added to the length, terminated by the first byte < 255
//	literals  — literal bytes
//	offset    — if the match nibble m > 0: 2 bytes little-endian, distance
//	            back into the output (1..65535)
//	matchExt  — if m == 15: extension bytes as for literals
//
// A match nibble m in 1..14 encodes a copy of m+3 bytes (minimum match 4);
// m == 15 encodes 18 plus the extension. m == 0 means the token carries
// literals only — how a stream ends when trailing bytes match nothing.
type LZ struct{}

// Name returns "lz".
func (LZ) Name() string { return "lz" }

const (
	lzMinMatch  = 4
	lzTableBits = 13
	lzMaxOffset = 1<<16 - 1
)

func lzHash(v uint32) uint32 { return (v * 2654435761) >> (32 - lzTableBits) }

// Encode appends the LZ form of src to dst. src must be at most
// MaxBlockSize bytes (the frame layer enforces this); Encode is
// deterministic, so identical payloads produce identical blocks.
func (LZ) Encode(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	var table [1 << lzTableBits]int32 // candidate position + 1; 0 = empty
	litStart, pos := 0, 0
	limit := len(src) - lzMinMatch
	for pos <= limit {
		seq := binary.LittleEndian.Uint32(src[pos:])
		h := lzHash(seq)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand >= 0 && pos-cand <= lzMaxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == seq {
			ml := lzMinMatch
			for pos+ml < len(src) && src[cand+ml] == src[pos+ml] {
				ml++
			}
			dst = lzEmit(dst, src[litStart:pos], ml, pos-cand)
			pos += ml
			litStart = pos
			continue
		}
		pos++
	}
	if litStart < len(src) {
		dst = lzEmit(dst, src[litStart:], 0, 0)
	}
	return dst
}

// lzEmit appends one token: lit literals followed, when matchLen > 0, by a
// copy of matchLen bytes from offset back.
func lzEmit(dst, lit []byte, matchLen, offset int) []byte {
	litNib := len(lit)
	if litNib > 15 {
		litNib = 15
	}
	matchNib := 0
	if matchLen > 0 {
		matchNib = matchLen - lzMinMatch + 1
		if matchNib > 15 {
			matchNib = 15
		}
	}
	dst = append(dst, byte(litNib<<4|matchNib))
	if litNib == 15 {
		rem := len(lit) - 15
		for rem >= 255 {
			dst = append(dst, 255)
			rem -= 255
		}
		dst = append(dst, byte(rem))
	}
	dst = append(dst, lit...)
	if matchLen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if matchNib == 15 {
			rem := matchLen - (lzMinMatch + 14)
			for rem >= 255 {
				dst = append(dst, 255)
				rem -= 255
			}
			dst = append(dst, byte(rem))
		}
	}
	return dst
}

var errLZTruncated = errors.New("blockcodec: truncated lz block")

// Decode appends the decoded form of src to dst. Every malformed input —
// truncated tokens, offsets pointing before the block start, output longer
// or shorter than the frame's rawLen — returns an error; Decode never
// panics and never grows the output past rawLen.
func (LZ) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, max(rawLen, 0))
	for len(src) > 0 {
		t := src[0]
		src = src[1:]
		litLen := int(t >> 4)
		if litLen == 15 {
			for {
				if len(src) == 0 {
					return dst, errLZTruncated
				}
				b := src[0]
				src = src[1:]
				litLen += int(b)
				if b < 255 {
					break
				}
			}
		}
		if litLen > len(src) {
			return dst, errLZTruncated
		}
		if len(dst)-base+litLen > rawLen {
			return dst, fmt.Errorf("blockcodec: lz block decodes past its %d-byte frame length", rawLen)
		}
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		matchNib := int(t & 15)
		if matchNib == 0 {
			continue
		}
		if len(src) < 2 {
			return dst, errLZTruncated
		}
		offset := int(src[0]) | int(src[1])<<8
		src = src[2:]
		matchLen := matchNib + lzMinMatch - 1
		if matchNib == 15 {
			for {
				if len(src) == 0 {
					return dst, errLZTruncated
				}
				b := src[0]
				src = src[1:]
				matchLen += int(b)
				if b < 255 {
					break
				}
			}
		}
		if offset == 0 || offset > len(dst)-base {
			return dst, fmt.Errorf("blockcodec: lz match offset %d outside the %d bytes decoded so far", offset, len(dst)-base)
		}
		if len(dst)-base+matchLen > rawLen {
			return dst, fmt.Errorf("blockcodec: lz block decodes past its %d-byte frame length", rawLen)
		}
		// A match may overlap its own output (offset < matchLen repeats
		// the last offset bytes), so it is copied in runs that read only
		// bytes already written: the offset bytes it starts at, then the
		// whole repeated stretch since, doubling it while any is left.
		from := len(dst) - offset
		for left := matchLen; left > 0; {
			n := min(left, len(dst)-from)
			dst = append(dst, dst[from:from+n]...)
			left -= n
		}
	}
	if len(dst)-base != rawLen {
		return dst, fmt.Errorf("blockcodec: lz block decoded to %d bytes, frame says %d", len(dst)-base, rawLen)
	}
	return dst, nil
}
