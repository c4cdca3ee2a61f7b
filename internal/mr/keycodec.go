package mr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// recordReader decodes a front-coded record stream. The key and value
// buffers are reused across next calls: returned slices are valid only
// until the following next.
type recordReader struct {
	r   *bufio.Reader
	rem int64 // records remaining
	key []byte
	val []byte
}

func newRecordReader(r io.Reader, records int64, bufSize int) *recordReader {
	return &recordReader{r: bufio.NewReaderSize(r, bufSize), rem: records}
}

// next decodes the next record. ok is false once the segment is exhausted;
// any decode or I/O error is returned with ok false.
func (d *recordReader) next() (key, val []byte, ok bool, err error) {
	if d.rem <= 0 {
		return nil, nil, false, nil
	}
	d.rem--
	prefix, err := d.uvarint()
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record prefix: %w", err)
	}
	suffix, err := d.uvarint()
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record suffix len: %w", err)
	}
	if prefix > uint64(len(d.key)) {
		return nil, nil, false, fmt.Errorf("mr: spill record prefix %d exceeds previous key length %d", prefix, len(d.key))
	}
	d.key = d.key[:prefix]
	d.key, err = readFull(d.r, d.key, int(suffix))
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record key suffix: %w", err)
	}
	vlen, err := d.uvarint()
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record value len: %w", err)
	}
	d.val = d.val[:0]
	d.val, err = readFull(d.r, d.val, int(vlen))
	if err != nil {
		return nil, nil, false, fmt.Errorf("mr: spill record value: %w", err)
	}
	return d.key, d.val, true, nil
}

// uvarint reads one uvarint. It decodes it where it lies in the buffer, and
// reads it a byte at a time only where the buffer holds no whole varint —
// at the end of the segment, where a truncated or overlong one gets
// binary.ReadUvarint's error.
func (d *recordReader) uvarint() (uint64, error) {
	buf, _ := d.r.Peek(binary.MaxVarintLen64)
	if v, n := binary.Uvarint(buf); n > 0 {
		d.r.Discard(n)
		return v, nil
	}
	return binary.ReadUvarint(d.r)
}

// readFull appends exactly n bytes from r to buf.
func readFull(r *bufio.Reader, buf []byte, n int) ([]byte, error) {
	for n > 0 {
		chunk, err := r.Peek(n)
		if len(chunk) == 0 {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		buf = append(buf, chunk...)
		r.Discard(len(chunk))
		n -= len(chunk)
	}
	return buf, nil
}
