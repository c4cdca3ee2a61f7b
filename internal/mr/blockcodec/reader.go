package blockcodec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Reader streams the decoded bytes of a framed block sequence: it walks
// blocks one at a time, verifies each payload's CRC before decoding it, and
// serves the decoded bytes whole, a block at a time (Block), or as an
// io.Reader. Exactly one block is buffered, so memory is O(MaxBlockSize)
// regardless of stream length.
//
// Errors are sticky and loud: a short header or payload surfaces as
// io.ErrUnexpectedEOF (wrapped), a CRC mismatch or codec failure as a
// descriptive error — a corrupt run file can never silently feed garbage
// records downstream. A clean io.EOF is returned only at a block boundary.
type Reader struct {
	src   *bufio.Reader
	codec Codec
	dec   []byte // current decoded block
	pos   int    // Read's cursor into dec
	enc   []byte // encoded payload scratch
	crc   [4]byte
	err   error
}

// readerBufSize is the Reader's source buffer: big enough that a block
// header plus a typical compressed payload needs one underlying read.
const readerBufSize = 32 << 10

// NewReader creates a Reader decoding r's framed stream through c. A source
// that knows its size (an io.SectionReader over one segment of a run file)
// gets a buffer no larger than it.
func NewReader(r io.Reader, c Codec) *Reader {
	size := int64(readerBufSize)
	if s, ok := r.(interface{ Size() int64 }); ok {
		size = min(size, s.Size())
	}
	return &Reader{src: bufio.NewReaderSize(r, int(size)), codec: c}
}

// Reset re-points the Reader at a new source stream, reusing its buffers.
// A source that knows its size and is larger than the source buffer gets a
// larger one — at least twice the size, at most the size NewReader gives an
// unsized source.
func (r *Reader) Reset(src io.Reader) {
	if s, ok := src.(interface{ Size() int64 }); ok && int64(r.src.Size()) < min(s.Size(), readerBufSize) {
		r.src = bufio.NewReaderSize(src, int(min(max(s.Size(), 2*int64(r.src.Size())), readerBufSize)))
	}
	r.src.Reset(src)
	r.dec = r.dec[:0]
	r.pos = 0
	r.err = nil
}

// Block returns the next decoded block whole, or io.EOF after the last one.
// The block is the Reader's own buffer: it stays valid until the following
// Block or Read call, and must not be modified.
func (r *Reader) Block() ([]byte, error) {
	if r.err == nil {
		r.err = r.nextBlock()
	}
	if r.err != nil {
		// A failed decode may have left part of a block in dec: drop it,
		// so that Read returns the error rather than those bytes.
		r.dec, r.pos = r.dec[:0], 0
		return nil, r.err
	}
	r.pos = len(r.dec)
	return r.dec, nil
}

// Read fills p with decoded bytes, crossing block boundaries as needed.
func (r *Reader) Read(p []byte) (int, error) {
	for r.pos >= len(r.dec) {
		if _, err := r.Block(); err != nil {
			return 0, err
		}
		r.pos = 0
	}
	n := copy(p, r.dec[r.pos:])
	r.pos += n
	return n, nil
}

// nextBlock reads, verifies and decodes the next block into r.dec.
func (r *Reader) nextBlock() error {
	rawLen, err := binary.ReadUvarint(r.src)
	if err == io.EOF {
		return io.EOF // clean end: the previous block was the last
	}
	if err != nil {
		return fmt.Errorf("blockcodec: block header: %w", err)
	}
	if rawLen > MaxBlockSize {
		return fmt.Errorf("blockcodec: block claims %d raw bytes, limit %d", rawLen, MaxBlockSize)
	}
	encLen, err := binary.ReadUvarint(r.src)
	if err != nil {
		return fmt.Errorf("blockcodec: block header: %w", noEOF(err))
	}
	// A codec stores at worst a bounded expansion of the raw payload (the
	// raw codec is identity; LZ adds ~1 byte per 255 literals): reject
	// anything bigger before allocating for it.
	if encLen > MaxBlockSize+MaxBlockSize/128+64 {
		return fmt.Errorf("blockcodec: block claims %d encoded bytes for %d raw", encLen, rawLen)
	}
	if _, err := io.ReadFull(r.src, r.crc[:]); err != nil {
		return fmt.Errorf("blockcodec: block crc: %w", noEOF(err))
	}
	want := binary.LittleEndian.Uint32(r.crc[:])
	if cap(r.enc) < int(encLen) {
		r.enc = make([]byte, encLen)
	}
	r.enc = r.enc[:encLen]
	if _, err := io.ReadFull(r.src, r.enc); err != nil {
		return fmt.Errorf("blockcodec: block payload: %w", noEOF(err))
	}
	if got := crc32.Checksum(r.enc, crcTable); got != want {
		return fmt.Errorf("blockcodec: block crc mismatch: stored %08x, computed %08x", want, got)
	}
	if _, raw := r.codec.(Raw); raw {
		// A raw payload is the block: serve the checked bytes as they are
		// and read the next payload into the previous block's buffer.
		if err := rawLenErr(r.enc, int(rawLen)); err != nil {
			return err
		}
		r.dec, r.enc = r.enc, r.dec
		return nil
	}
	r.dec, err = r.codec.Decode(r.dec[:0], r.enc, int(rawLen))
	if err != nil {
		return err
	}
	if len(r.dec) != int(rawLen) {
		return fmt.Errorf("blockcodec: block decoded to %d bytes, frame says %d", len(r.dec), rawLen)
	}
	return nil
}

// noEOF upgrades a mid-structure io.EOF to io.ErrUnexpectedEOF so callers
// cannot mistake a truncated block for a clean stream end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
