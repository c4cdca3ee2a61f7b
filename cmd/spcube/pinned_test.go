package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/data"
)

// sortedOutputGolden holds, per generated input and aggregate, the first 16
// hex digits of the SHA-256 of spcube's output with its body lines sorted.
// The hashes were recorded from the last commit whose group keys were
// uvarints, whose row order within a cuboid followed the values' low bits: a
// change of row order leaves them standing, a change of any row does not.
// Every algorithm computes the same cube, so one hash covers all five.
var sortedOutputGolden = map[string]string{
	"uniform/count":  "8bb14e27cdfc6ccc",
	"uniform/sum":    "a77a1bb270580401",
	"uniform/min":    "e9365188127e6478",
	"uniform/avg":    "728ccc934e2ce51d",
	"binomial/count": "7be6edcaf6b521b1",
	"binomial/sum":   "3ce778fe1bc4bbc0",
	"binomial/min":   "875ce084deda4749",
	"binomial/avg":   "76c945cc347b245e",
	"wiki/count":     "365ba883d624cbc2",
	"wiki/sum":       "2d1838a3a985f3d7",
	"wiki/min":       "1b0f255643a5806d",
	"wiki/avg":       "a43c2886f91e0111",
}

// TestSortedOutputPinned runs spcube over three generated inputs whose
// dictionary codes need one- to three-byte keys, under every algorithm and
// four aggregates, and holds each output, as a set of rows, to the hash
// recorded for it.
func TestSortedOutputPinned(t *testing.T) {
	dir := t.TempDir()
	for _, in := range []struct {
		name string
		n, d int
	}{{"uniform", 9000, 4}, {"binomial", 2000, 4}, {"wiki", 3000, 4}} {
		path := filepath.Join(dir, in.name+".csv")
		writeGenerated(t, path, in.name, in.n, in.d)
		for _, algo := range []string{"sp-cube", "naive", "mr-cube", "hive", "pipesort"} {
			for _, fn := range []string{"count", "sum", "min", "avg"} {
				out := filepath.Join(dir, "out.csv")
				if err := spcube(nil, "-in", path, "-o", out, "-algo", algo, "-agg", fn, "-k", "4"); err != nil {
					t.Fatalf("%s/%s/%s: %v", in.name, algo, fn, err)
				}
				sum := sha256.Sum256([]byte(sortedLines(t, out)))
				if got, want := hex.EncodeToString(sum[:8]), sortedOutputGolden[in.name+"/"+fn]; got != want {
					t.Errorf("%s/%s/%s: sorted output hash %s, want %s", in.name, algo, fn, got, want)
				}
			}
		}
	}
}

// writeGenerated writes n rows of a generated dataset to path as CSV.
func writeGenerated(t *testing.T, path, dataset string, n, d int) {
	t.Helper()
	s, err := data.StreamByName(dataset, n, d, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(s.Header, ",") + "\n")
	row := make([]string, len(s.Header))
	for s.Next(row) {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
