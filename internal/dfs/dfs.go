// Package dfs simulates the distributed file system shared by all machines
// of the MapReduce cluster (§2.3): the input relation is read from it, the
// SP-Sketch is distributed through it, and the output cuboids are written
// back to it.
//
// Files are in-memory byte buffers with exact size accounting. A FS can run
// in Discard mode, in which written bytes are counted (and folded into a
// rolling checksum) but not retained — large cube outputs can then be
// produced at benchmark scale without materializing them.
//
// A reduce task attempt writes its output file through a Writer of its own,
// which takes no lock, and the file appears in the FS only when the attempt
// commits it: a failed attempt leaves nothing behind.
package dfs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// FS is a simulated distributed file system.
type FS struct {
	mu      sync.Mutex
	files   map[string]*file
	discard bool
}

type file struct {
	data []byte
	size int64
	sum  uint64
	recs int64
}

// New creates an empty file system. When discard is true, written content is
// dropped after being counted and checksummed.
func New(discard bool) *FS {
	return &FS{files: make(map[string]*file), discard: discard}
}

// Record checksums are FNV-1a (64-bit); a file folds its records' sums with
// XOR, which makes its checksum independent of record order.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a[B ~string | ~[]byte](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// Writer builds one file's next records privately — one task attempt's
// output — and Commit appends them to the file. It keeps the bytes in chunks
// that each hold whole records, so a growing output is never copied, and in
// a discard-mode FS it keeps only the accounting. A Writer is not safe for
// concurrent use.
type Writer struct {
	discard bool
	chunks  [][]byte // filled chunks, in order; cur is being filled
	cur     []byte
	size    int64
	recs    int64
	sum     uint64
}

// The first chunk is minChunk bytes, and each next one twice its
// predecessor, up to maxChunk: a small output costs little, and a large one
// grows in fixed-size steps.
const (
	minChunk = 4 << 10
	maxChunk = 256 << 10
)

// NewWriter returns an empty Writer for a file of fs.
func (fs *FS) NewWriter() *Writer { return &Writer{discard: fs.discard} }

// AppendKV appends one record: key, a tab, and val.
func (w *Writer) AppendKV(key string, val []byte) {
	n := len(key) + 1 + len(val)
	w.size += int64(n)
	w.recs++
	w.sum ^= fnv1a((fnv1a(fnvOffset, key)^'\t')*fnvPrime, val)
	if w.discard {
		return
	}
	if len(w.cur)+n > cap(w.cur) {
		if len(w.cur) > 0 {
			w.chunks = append(w.chunks, w.cur)
		}
		w.cur = make([]byte, 0, max(n, min(maxChunk, max(minChunk, 2*cap(w.cur)))))
	}
	w.cur = append(w.cur, key...)
	w.cur = append(w.cur, '\t')
	w.cur = append(w.cur, val...)
}

// Commit appends w's records to the named file, creating it if needed; a
// Writer with no records creates no file. The file's bytes are joined into
// one exact-size slice.
func (fs *FS) Commit(name string, w *Writer) {
	if w.recs == 0 {
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[name]
	if f == nil {
		f = &file{}
		fs.files[name] = f
	}
	if !fs.discard {
		data := make([]byte, 0, f.size+w.size)
		data = append(data, f.data...)
		for _, c := range w.chunks {
			data = append(data, c...)
		}
		f.data = append(data, w.cur...)
	}
	f.size += w.size
	f.recs += w.recs
	f.sum ^= w.sum
}

// Write replaces the named file's content with one record.
func (fs *FS) Write(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &file{size: int64(len(data)), recs: 1, sum: fnv1a(fnvOffset, data)}
	if !fs.discard {
		f.data = append([]byte(nil), data...)
	}
	fs.files[name] = f
}

// Reorder writes data over the named file's content, which data must hold
// in another order: the file keeps its size, record count and checksum, and
// its bytes, so a slice Read returned reads the new order. Not knowing where
// records end, Reorder checks what any order of them keeps — the length and
// the bytes, as a multiset — and fails, leaving the file as it was, for data
// that differs in either, in discard mode and for a missing file.
func (fs *FS) Reorder(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	switch {
	case !ok:
		return fmt.Errorf("dfs: file %q does not exist", name)
	case fs.discard:
		return fmt.Errorf("dfs: file %q content discarded (FS in discard mode)", name)
	case len(data) != len(f.data) || byteSum(data) != byteSum(f.data):
		return fmt.Errorf("dfs: reordering file %q: not a permutation of its records", name)
	}
	copy(f.data, data)
	return nil
}

// byteSum returns the sum of b's bytes, 32 at a time: each of four words
// adds its even bytes into one set of four 16-bit lanes and its odd bytes
// into another, which 64 rounds cannot overflow (64 · 4 · 255 < 1<<16), and
// the lanes are folded out after every 64.
func byteSum(b []byte) uint64 {
	const lanes = 0x00ff00ff00ff00ff
	fold := func(x uint64) uint64 { return x&0xffff + x>>16&0xffff + x>>32&0xffff + x>>48 }
	var sum uint64
	for len(b) >= 32 {
		var even, odd uint64
		for n := min(len(b)/32, 64); n > 0; n-- {
			w0, w1 := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
			w2, w3 := binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])
			even += w0&lanes + w1&lanes + w2&lanes + w3&lanes
			odd += w0>>8&lanes + w1>>8&lanes + w2>>8&lanes + w3>>8&lanes
			b = b[32:]
		}
		sum += fold(even) + fold(odd)
	}
	for _, c := range b {
		sum += uint64(c)
	}
	return sum
}

// Read returns the named file's content. It fails in discard mode and for
// missing files.
func (fs *FS) Read(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	if fs.discard {
		return nil, fmt.Errorf("dfs: file %q content discarded (FS in discard mode)", name)
	}
	return f.data, nil
}

// Size returns the named file's size in bytes (0 for a missing file).
func (fs *FS) Size(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f.size
	}
	return 0
}

// Records returns the number of records appended to the named file.
func (fs *FS) Records(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f.recs
	}
	return 0
}

// Checksum returns an order-independent checksum of the records written to
// the named file, usable to compare outputs across algorithms even in
// discard mode.
func (fs *FS) Checksum(name string) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f.sum
	}
	return 0
}

// List returns the file names with a given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TotalSize returns the combined size of all files with the given prefix.
func (fs *FS) TotalSize(prefix string) int64 {
	var total int64
	for _, name := range fs.List(prefix) {
		total += fs.Size(name)
	}
	return total
}

// TotalChecksum combines the checksums of all files with the given prefix.
func (fs *FS) TotalChecksum(prefix string) uint64 {
	var sum uint64
	for _, name := range fs.List(prefix) {
		sum ^= fs.Checksum(name)
	}
	return sum
}

// TotalRecords returns the combined record count of files with the prefix.
func (fs *FS) TotalRecords(prefix string) int64 {
	var total int64
	for _, name := range fs.List(prefix) {
		total += fs.Records(name)
	}
	return total
}

// Remove deletes all files with the given prefix.
func (fs *FS) Remove(prefix string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name := range fs.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			delete(fs.files, name)
		}
	}
}
