package dfs

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// write commits one writer holding the given key/value records to name.
func write(fs *FS, name string, kvs ...string) {
	w := fs.NewWriter()
	for i := 0; i+1 < len(kvs); i += 2 {
		w.AppendKV(kvs[i], []byte(kvs[i+1]))
	}
	fs.Commit(name, w)
}

func TestReadBack(t *testing.T) {
	fs := New(false)
	write(fs, "a/1", "hello", "1", "world", "2")
	data, err := fs.Read("a/1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello\t1world\t2")) {
		t.Errorf("read back %q", data)
	}
	if fs.Size("a/1") != 14 || fs.Records("a/1") != 2 {
		t.Errorf("size=%d records=%d", fs.Size("a/1"), fs.Records("a/1"))
	}
}

// TestCommitAppends: a second commit to a file appends to it, as the rounds
// of a job that share an output prefix do; the accounting adds up.
func TestCommitAppends(t *testing.T) {
	fs := New(false)
	write(fs, "f", "a", "1")
	write(fs, "f", "b", "2")
	one := New(false)
	write(one, "f", "a", "1", "b", "2")
	data, _ := fs.Read("f")
	want, _ := one.Read("f")
	if !bytes.Equal(data, want) || fs.Size("f") != one.Size("f") ||
		fs.Records("f") != one.Records("f") || fs.Checksum("f") != one.Checksum("f") {
		t.Errorf("two commits: %q size %d recs %d; one commit: %q size %d recs %d",
			data, fs.Size("f"), fs.Records("f"), want, one.Size("f"), one.Records("f"))
	}
}

// TestWriterChunks writes past several chunk boundaries, with records of
// every size up to two chunks: the committed file is the records in order,
// and each record's checksum is the FNV-1a of its bytes.
func TestWriterChunks(t *testing.T) {
	fs := New(false)
	w := fs.NewWriter()
	var want []byte
	var sum uint64
	for i := 0; len(want) < 3*maxChunk; i++ {
		key := fmt.Sprintf("k%d", i)
		val := bytes.Repeat([]byte{byte(i)}, (i*7919)%(2*maxChunk/(i%5+1)))
		w.AppendKV(key, val)
		rec := append(append([]byte(key), '\t'), val...)
		want = append(want, rec...)
		h := fnv.New64a()
		h.Write(rec)
		sum ^= h.Sum64()
	}
	if _, err := fs.Read("f"); err == nil {
		t.Fatal("an uncommitted file must not exist")
	}
	fs.Commit("f", w)
	data, _ := fs.Read("f")
	if !bytes.Equal(data, want) || cap(data) != len(want) {
		t.Errorf("committed %d bytes (cap %d), want the %d written", len(data), cap(data), len(want))
	}
	if fs.Checksum("f") != sum || fs.Size("f") != int64(len(want)) {
		t.Errorf("checksum %x size %d, want %x %d", fs.Checksum("f"), fs.Size("f"), sum, len(want))
	}
}

func TestEmptyCommitCreatesNoFile(t *testing.T) {
	fs := New(false)
	fs.Commit("f", fs.NewWriter())
	if len(fs.List("")) != 0 {
		t.Errorf("empty commit created %v", fs.List(""))
	}
}

func TestWriteReplaces(t *testing.T) {
	fs := New(false)
	write(fs, "f", "old", "")
	fs.Write("f", []byte("new!"))
	data, _ := fs.Read("f")
	if string(data) != "new!" || fs.Size("f") != 4 || fs.Records("f") != 1 {
		t.Errorf("write did not replace: %q", data)
	}
}

func TestDiscardModeAccountsWithoutRetaining(t *testing.T) {
	fs := New(true)
	write(fs, "big", "01234", "6789")
	if fs.Size("big") != 10 || fs.Records("big") != 1 {
		t.Error("discard mode must still account")
	}
	if _, err := fs.Read("big"); err == nil {
		t.Error("discard mode must refuse reads")
	}
	if fs.Checksum("big") == 0 {
		t.Error("discard mode must checksum")
	}
	kept := New(false)
	write(kept, "big", "01234", "6789")
	if fs.Checksum("big") != kept.Checksum("big") {
		t.Error("discard mode must checksum as store mode does")
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	a, b := New(true), New(true)
	write(a, "f", "x", "1", "y", "2")
	write(b, "f", "y", "2", "x", "1")
	if a.Checksum("f") != b.Checksum("f") {
		t.Error("checksum must be order independent")
	}
	if a.Checksum("f") == a.Checksum("missing") {
		t.Error("missing file checksum must differ from non-empty file")
	}
}

func TestPrefixOperations(t *testing.T) {
	fs := New(false)
	write(fs, "out/job/p0", "a", "")
	write(fs, "out/job/p1", "bb", "")
	write(fs, "other/x", "", "")
	if got := fs.List("out/job/"); len(got) != 2 || got[0] != "out/job/p0" {
		t.Errorf("List: %v", got)
	}
	if fs.TotalSize("out/job/") != 5 {
		t.Errorf("TotalSize = %d", fs.TotalSize("out/job/"))
	}
	if fs.TotalRecords("out/job/") != 2 {
		t.Errorf("TotalRecords = %d", fs.TotalRecords("out/job/"))
	}
	if fs.TotalChecksum("out/job/") == 0 {
		t.Error("TotalChecksum empty")
	}
	fs.Remove("out/job/")
	if len(fs.List("out/job/")) != 0 {
		t.Error("Remove failed")
	}
	if len(fs.List("other/")) != 1 {
		t.Error("Remove removed too much")
	}
}

func TestMissingFile(t *testing.T) {
	fs := New(false)
	if _, err := fs.Read("nope"); err == nil {
		t.Error("missing file must error")
	}
	if fs.Size("nope") != 0 || fs.Records("nope") != 0 {
		t.Error("missing file must have zero accounting")
	}
}

// TestReorderTakesOnlyAPermutation: a file takes its records in another
// order and keeps its size, record count and checksum; content of another
// length or other bytes leaves the file as it was.
func TestReorderTakesOnlyAPermutation(t *testing.T) {
	fs := New(false)
	write(fs, "f", "aa", "1", "b", "22", "c", "3")
	size, recs, sum := fs.Size("f"), fs.Records("f"), fs.Checksum("f")
	for name, bad := range map[string]string{
		"a record changed": "c\t3b\t23aa\t1",
		"a record short":   "c\t3b\t2aa\t1",
		"a byte more":      "c\t3b\t22aa\t1\x00",
	} {
		if err := fs.Reorder("f", []byte(bad)); err == nil {
			t.Errorf("%s: Reorder took %q", name, bad)
		}
	}
	if data, _ := fs.Read("f"); string(data) != "aa\t1b\t22c\t3" {
		t.Fatalf("after refused reorders the file holds %q", data)
	}
	if err := fs.Reorder("f", []byte("c\t3b\t22aa\t1")); err != nil {
		t.Fatal(err)
	}
	if data, _ := fs.Read("f"); string(data) != "c\t3b\t22aa\t1" {
		t.Errorf("reordered file holds %q", data)
	}
	if fs.Size("f") != size || fs.Records("f") != recs || fs.Checksum("f") != sum {
		t.Errorf("reorder moved size/records/checksum: %d/%d/%x, was %d/%d/%x",
			fs.Size("f"), fs.Records("f"), fs.Checksum("f"), size, recs, sum)
	}
	if err := fs.Reorder("missing", nil); err == nil {
		t.Error("Reorder of a missing file succeeded")
	}
	discard := New(true)
	write(discard, "f", "aa", "1")
	if err := discard.Reorder("f", []byte("aa\t1")); err == nil {
		t.Error("Reorder in discard mode succeeded")
	}
}

// TestByteSum holds the 32-bytes-at-a-time sum to a plain one over lengths
// around its 64-round fold, of 0xff bytes, which overflow a lane folded one
// round later.
func TestByteSum(t *testing.T) {
	b := bytes.Repeat([]byte{0xff}, 4200)
	for _, n := range []int{0, 1, 31, 32, 33, 2047, 2048, 2049, 2080, 4200} {
		if got, want := byteSum(b[:n]), uint64(n)*0xff; got != want {
			t.Errorf("byteSum of %d bytes = %d, want %d", n, got, want)
		}
	}
}
