package mr

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/spcube/spcube/internal/mr/blockcodec"
)

// Spill run-file record codec.
//
// A run holds one sorted bucket of (key, value) pairs. Sorted order makes
// adjacent keys share long prefixes (group keys are packed dimension
// values, so an entire cuboid's records differ only in the trailing
// dimensions), which front coding exploits: each record stores only the
// suffix that differs from the previous record's key. On cube workloads
// this cuts key bytes by 2-4x versus storing keys whole.
//
// Record wire format (all integers unsigned varints):
//
//	prefixLen  — bytes shared with the previous record's key (0 for the
//	             first record of a segment)
//	suffixLen  — length of the key suffix that follows
//	suffix     — key[prefixLen:]
//	valLen     — length of the value
//	value      — opaque aggregate-state / measure bytes
//
// Segments are self-delimiting via the record count carried in their
// spillSeg metadata; there is no in-band terminator.

// appendSpillRecord front-codes one record against prev and appends its
// encoding to buf.
func appendSpillRecord(buf []byte, prev, key string, val []byte) []byte {
	p := sharedPrefix(prev, key)
	buf = binary.AppendUvarint(buf, uint64(p))
	buf = binary.AppendUvarint(buf, uint64(len(key)-p))
	buf = append(buf, key[p:]...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	return append(buf, val...)
}

func sharedPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// segWriter front-codes sorted records into block-framed segments of a run
// file: the one encoder of the segment format, for map flushes and merge
// passes alike. A segment's encoding is framed in payloads of exactly
// blockcodec.DefaultBlockSize as they fill, the remainder kept pending until
// finish frames it. Framed bytes gather in out until the caller writes
// them: a map flush writes all its buckets' segments in one call, and a
// merge pass writes each block as it is framed, so nothing holds a whole
// merged run.
type segWriter struct {
	codec blockcodec.Codec
	seg   spillSeg
	enc   []byte // pending front-coded bytes, under one block between adds
	out   []byte // framed bytes not yet written
	block []byte // codec scratch
	prev  []byte // previous key (owned copy; merge buffers are reused)
}

// start begins a segment of sf, which starts where sf's end will be once
// out is written.
func (w *segWriter) start(sf *spillFile) {
	w.seg = spillSeg{f: sf.f, off: sf.off + int64(len(w.out)), codec: w.codec}
	w.prev = w.prev[:0]
}

// add appends one record. key and val need only stay valid for the call.
func (w *segWriter) add(key string, val []byte) {
	w.enc = appendSpillRecord(w.enc, byteString(w.prev), key, val)
	w.seg.records++
	w.seg.raw += pairBytes(key, val)
	w.prev = append(w.prev[:0], key...)
	if len(w.enc) >= blockcodec.DefaultBlockSize {
		w.frame(false)
	}
}

// frame frames the pending encoding's whole blocks into out, and its
// remainder too when tail is set.
func (w *segWriter) frame(tail bool) {
	rest := w.enc
	for len(rest) >= blockcodec.DefaultBlockSize || tail && len(rest) > 0 {
		n := min(len(rest), blockcodec.DefaultBlockSize)
		framed := len(w.out)
		w.out, w.block = blockcodec.AppendBlock(w.out, w.codec, rest[:n], w.block)
		w.seg.length += int64(len(w.out) - framed)
		w.seg.enc += int64(n)
		rest = rest[n:]
	}
	w.enc = w.enc[:copy(w.enc, rest)]
}

// finish frames the segment's tail and returns the segment.
func (w *segWriter) finish() spillSeg {
	w.frame(true)
	return w.seg
}

// encodeFlush front-codes one map flush into out, a segment per sorted
// bucket of rows over arena, and records the segments as sf's next flush.
// It returns the flush's front-coded bytes.
func (w *segWriter) encodeFlush(sf *spillFile, buckets [][]IndexRow, arena [][]byte) (encBytes int64) {
	segs := make([]spillSeg, len(buckets))
	for r, bucket := range buckets {
		w.start(sf)
		for _, row := range bucket {
			w.add(recordAt(arena, row))
		}
		segs[r] = w.finish()
		encBytes += segs[r].enc
	}
	sf.spills = append(sf.spills, segs)
	return encBytes
}

// write writes out, if it holds anything, to sf and empties it.
func (w *segWriter) write(sf *spillFile) error {
	if len(w.out) == 0 {
		return nil
	}
	err := sf.write(w.out)
	w.out = w.out[:0]
	return err
}

// segReader streams one segment's records: a section of the run file,
// walked block by block by a blockcodec.Reader (which CRC-verifies each
// block before decoding it), then decoded record by record straight out of
// the decoded block. A value that lies inside a block is returned as a view
// of it; only a record that straddles a block boundary is assembled, its
// value in carry. The key is rebuilt in key, which the next record's shared
// prefix reads. Returned slices are valid only until the following next.
//
// Every length a record claims is checked against the decoded bytes the
// segment has left (spillSeg.enc), so a corrupt length fails the read
// rather than allocating for it or wrapping negative. reset rewinds the
// reader in place, so a retried reduce attempt re-reads its input exactly
// like a real reducer re-fetching a map output, or, after seg was set,
// starts another segment. Concurrent readers of different segments share
// the file safely via ReadAt.
type segReader struct {
	seg    spillSeg
	sec    io.SectionReader
	blocks *blockcodec.Reader
	buf    []byte // the current block's unread bytes
	unread int64  // seg.enc less the bytes of every block fetched so far
	rem    int64  // records remaining
	key    []byte
	carry  []byte
}

// reset points the reader at seg's first record, reusing its buffers — and
// its block reader, so the segments one reader reads share a codec.
func (r *segReader) reset() {
	r.sec = *io.NewSectionReader(r.seg.f, r.seg.off, r.seg.length)
	if r.blocks == nil {
		r.blocks = blockcodec.NewReader(&r.sec, r.seg.codec)
	} else {
		r.blocks.Reset(&r.sec)
	}
	r.buf, r.unread, r.rem, r.key = nil, r.seg.enc, r.seg.records, r.key[:0]
}

// next decodes the next record. ok is false once the segment is exhausted;
// any decode or I/O error is returned with ok false.
func (r *segReader) next() (key, val []byte, ok bool, err error) {
	if r.rem <= 0 {
		return nil, nil, false, nil
	}
	r.rem--
	prefix, err := r.uvarint()
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record prefix: %w", err)
	}
	suffix, err := r.uvarint()
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record suffix len: %w", err)
	}
	if prefix > uint64(len(r.key)) {
		return nil, nil, false, fmt.Errorf("mr: spill record prefix %d exceeds previous key length %d", prefix, len(r.key))
	}
	if err := r.fits(suffix); err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record key suffix: %w", err)
	}
	if r.key, err = r.appendN(r.key[:prefix], int(suffix)); err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record key suffix: %w", err)
	}
	vlen, err := r.uvarint()
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record value len: %w", err)
	}
	if err := r.fits(vlen); err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record value: %w", err)
	}
	if n := int(vlen); n <= len(r.buf) {
		val, r.buf = r.buf[:n:n], r.buf[n:]
	} else if r.carry, err = r.appendN(r.carry[:0], n); err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record value: %w", err)
	} else {
		val = r.carry
	}
	return r.key, val, true, nil
}

// fits rejects a length longer than the decoded bytes the segment has left.
func (r *segReader) fits(n uint64) error {
	if left := r.unread + int64(len(r.buf)); left < 0 || n > uint64(left) {
		return fmt.Errorf("length %d overruns the segment", n)
	}
	return nil
}

// fill fetches the next non-empty block once the current one is used up.
func (r *segReader) fill() error {
	for len(r.buf) == 0 {
		block, err := r.blocks.Block()
		if err != nil {
			return err
		}
		r.unread -= int64(len(block))
		r.buf = block
	}
	return nil
}

// uvarint decodes one uvarint where it lies in the block, and reads it a
// byte at a time only where the block holds no whole varint — across a
// block boundary, or at the end of the segment, where a truncated or
// overlong one gets binary.ReadUvarint's error.
func (r *segReader) uvarint() (uint64, error) {
	if v, n := binary.Uvarint(r.buf); n > 0 {
		r.buf = r.buf[n:]
		return v, nil
	}
	return binary.ReadUvarint(r)
}

// ReadByte makes the reader an io.ByteReader for binary.ReadUvarint.
func (r *segReader) ReadByte() (byte, error) {
	if err := r.fill(); err != nil {
		return 0, err
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// appendN appends the segment's next n bytes to dst, crossing blocks.
func (r *segReader) appendN(dst []byte, n int) ([]byte, error) {
	for n > 0 {
		if err := r.fill(); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
		k := min(n, len(r.buf))
		dst = append(dst, r.buf[:k]...)
		r.buf = r.buf[k:]
		n -= k
	}
	return dst, nil
}
