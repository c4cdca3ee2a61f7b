package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// withBatchRows runs fn with the load's batch size lowered to one row (every
// row a hand-off), to three (batches that end mid-file and a short last one)
// and as it is.
func withBatchRows(t *testing.T, fn func(rows int)) {
	t.Helper()
	defer func(old int) { csvBatchRows = old }(csvBatchRows)
	for _, rows := range []int{1, 3, 4096} {
		csvBatchRows = rows
		fn(rows)
	}
}

// TestReadCSVRejectsBadShapes pins the text of every load error to what the serial
// reader returned — the first error in file order, numbered by record — and
// holds a failed load to leaving no goroutine behind.
func TestReadCSVRejectsBadShapes(t *testing.T) {
	wide := strings.Repeat("d,", 33) + "m\n" + strings.Repeat("x,", 33) + "1\n"
	cases := []struct {
		name, csv, want string
	}{
		{"empty", "", "reading header: EOF"},
		{"one column", "just\na\n", "need at least one dimension column and a measure column, got 1 columns"},
		{"too many dimensions", wide, "33 dimensions exceed the supported maximum 20"},
		{"header only", "a,m\n", "no data rows"},
		{"ragged row before a bad measure", "a,b,m\nx,y,1\nx,2\nx,y,bad\n", "record on line 3: wrong number of fields"},
		{"bad measure before a ragged row", "a,b,m\nx,y,1\nx,y,bad\nx,2\n", `line 3: measure "bad" is not an integer: strconv.ParseInt: parsing "bad": invalid syntax`},
		{"ragged row in a later batch", "a,b,m\nx,y,1\nx,y,2\nx,y,3\nx,y,4\nx,2\n", "record on line 6: wrong number of fields"},
		{"empty measure on the last line", "a,b,m\nx,y,1\nx,y,2\nx,y,3\nx,y,\n", `line 5: measure "" is not an integer: strconv.ParseInt: parsing "": invalid syntax`},
		{"bare quote", "a,b,m\nx,y,1\nx\"y,z,2\n", `parse error on line 3, column 2: bare " in non-quoted-field`},
		{"unterminated quote", "a,b,m\nx,y,1\n\"x,z,2\n", `parse error on line 3, column 8: extraneous or missing " in quoted-field`},
		// encoding/csv skips the blank line: rows are numbered as records.
		{"measure out of range", "a,b,m\nx,y,1\n\nx,z,99999999999999999999\n", `line 3: measure "99999999999999999999" is not an integer: strconv.ParseInt: parsing "99999999999999999999": value out of range`},
	}
	before := runtime.NumGoroutine()
	withBatchRows(t, func(rows int) {
		for _, c := range cases {
			_, err := ReadCSV(strings.NewReader(c.csv))
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, batches of %d: err = %v, want %q", c.name, rows, err, c.want)
			}
			if after := goroutinesSettleAt(before); after > before {
				t.Errorf("%s, batches of %d: %d goroutines before the load, %d after", c.name, rows, before, after)
			}
		}
	})
}

// goroutinesSettleAt returns the goroutine count once it is down to want. A
// goroutine that has let its WaitGroup go may still be on its way out when
// the waiter resumes, so the count is polled for a moment, not read once.
func goroutinesSettleAt(want int) int {
	for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
		if n := runtime.NumGoroutine(); n <= want || time.Now().After(deadline) {
			return n
		}
	}
}

// serialLoad is the reader ReadCSV replaced: every record through
// AppendStrings, one after the other.
func serialLoad(t testing.TB, file string) *Relation {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(file))
	header, err := cr.Read()
	if err != nil {
		t.Fatal(err)
	}
	d := len(header) - 1
	rel := New(header[:d], header[d])
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := strconv.ParseInt(rec[d], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		rel.AppendStrings(rec[:d], m)
	}
}

// requireSameRelation: the same tuples in the same order under the same
// codes, and dictionaries that assign and decode alike.
func requireSameRelation(t testing.TB, got, want *Relation) {
	t.Helper()
	if got.N() != want.N() || got.D() != want.D() || got.Schema.MeasureName != want.Schema.MeasureName ||
		!slices.Equal(got.Schema.DimNames, want.Schema.DimNames) {
		t.Fatalf("loaded %v, the serial reader %v", got, want)
	}
	for i, w := range want.Tuples {
		if g := got.Tuples[i]; g.Measure != w.Measure || !slices.Equal(g.Dims, w.Dims) {
			t.Fatalf("row %d: loaded %v, the serial reader %v", i, g, w)
		}
	}
	for c := 0; c < want.D(); c++ {
		if got.Dict.Cardinality(c) != want.Dict.Cardinality(c) {
			t.Fatalf("column %d: %d entries, the serial reader has %d", c, got.Dict.Cardinality(c), want.Dict.Cardinality(c))
		}
		for v := Value(0); int(v) < want.Dict.Cardinality(c); v++ {
			g, _ := got.Dict.Decode(c, v)
			w, _ := want.Dict.Decode(c, v)
			if code, ok := got.Dict.Code(c, w); g != w || !ok || code != v {
				t.Fatalf("column %d code %d: decodes to %q and %q encodes to %d, %v; the serial reader has %q", c, v, g, w, code, ok, w)
			}
		}
	}
}

// TestReadCSVEqualsSerialLoad: a file of several batches whose columns mix
// integers, text, quoted fields and repeats, under every batch size.
func TestReadCSVEqualsSerialLoad(t *testing.T) {
	var file strings.Builder
	file.WriteString("id,word,\"quoted, name\",mixed,m\n")
	words := []string{"apple", "", "007", "-0", `"say ""hi"""`, `"a,b"`, " lead", "2147483648", "pear", "\"two\nlines\""}
	for i := 0; i < 9000; i++ {
		fmt.Fprintf(&file, "%d,%s,%s,", i*7919%5000, words[i%len(words)], words[(i/3)%len(words)])
		if i%4 == 0 {
			fmt.Fprintf(&file, "w%d", i%700)
		} else {
			fmt.Fprintf(&file, "%d", -(i % 900))
		}
		fmt.Fprintf(&file, ",%d\n", i%11-5)
	}
	want := serialLoad(t, file.String())
	withBatchRows(t, func(int) {
		got, err := ReadCSV(strings.NewReader(file.String()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRelation(t, got, want)
	})
}

func TestReadCSV(t *testing.T) {
	rel, err := ReadCSV(strings.NewReader("name,city,sales\nlaptop,Rome,3\nlaptop,Oslo,1\nphone,\"Rome, IT\",-2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.N() != 3 || rel.D() != 2 || rel.Schema.MeasureName != "sales" || rel.Schema.DimNames[1] != "city" {
		t.Fatalf("shape: %v", rel)
	}
	last := rel.Tuples[2]
	if got := rel.DimString(0, last.Dims[0]) + "|" + rel.DimString(1, last.Dims[1]); got != "phone|Rome, IT" || last.Measure != -2 {
		t.Errorf("last row = %s, %d", got, last.Measure)
	}
	if rel.Tuples[0].Dims[0] != rel.Tuples[1].Dims[0] {
		t.Error("equal strings got different dictionary codes")
	}
}

// TestRowsDoNotAlias: rows' Dims are carved from shared chunks, so each must
// be capped at its own length — appending to one row's Dims reallocates
// instead of writing into the next row — whichever way the row came in.
// (Copying a Relation by value would hand two relations the same chunk; its
// noCopy field makes go vet reject that.)
func TestRowsDoNotAlias(t *testing.T) {
	fromCSV, err := ReadCSV(strings.NewReader("a,b,m\n1,x,1\n2,y,2\n3,z,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	appended := New([]string{"a", "b"}, "m")
	for i := 0; i < 40; i++ { // past the first chunk
		appended.Append([]Value{Value(i), Value(-i)}, 1)
		appended.AppendStrings([]string{"p", "q"}, 1)
	}
	for name, rel := range map[string]*Relation{"ReadCSV": fromCSV, "Append": appended} {
		for i := 0; i+1 < rel.N(); i++ {
			next := append([]Value(nil), rel.Tuples[i+1].Dims...)
			_ = append(rel.Tuples[i].Dims, 99)
			for j, v := range rel.Tuples[i+1].Dims {
				if v != next[j] {
					t.Fatalf("%s: appending to row %d's Dims changed row %d", name, i, i+1)
				}
			}
		}
	}
}
