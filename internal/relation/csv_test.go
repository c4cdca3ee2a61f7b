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

	"github.com/spcube/spcube/internal/lattice"
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
		// The errors of lines that follow plain lines and a blank one count
		// every line before them, however the plain ones were read.
		{"ragged row after a blank line", "a,b,m\nx,y,1\nx,y,2\n\nx,y,3\nx,2\n", "record on line 6: wrong number of fields"},
		{"bare quote after a blank line", "a,b,m\nx,y,1\n\nx,y,2\nx\"y,z,3\n", `parse error on line 5, column 2: bare " in non-quoted-field`},
		{"bad quote in a two-line record after a blank line", "a,b,m\nx,y,1\n\nx,y,2\n\"p\nq\"r,z,3\n", `record on line 5; parse error on line 6, column 2: extraneous or missing " in quoted-field`},
		{"ragged row after a two-line record", "a,b,m\nx,y,1\n\n\"p\nq\",z,3\nx,y,4\nx,4\n", "record on line 7: wrong number of fields"},
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

// serialLoad is the reader ReadCSV replaced: every record encoding/csv
// reads through AppendStrings, one after the other, and ReadCSV's errors.
func serialLoad(file string) (*Relation, error) {
	cr := csv.NewReader(strings.NewReader(file))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	d := len(header) - 1
	if d < 1 {
		return nil, fmt.Errorf("need at least one dimension column and a measure column, got %d columns", len(header))
	}
	if d > lattice.MaxDims {
		return nil, fmt.Errorf("%d dimensions exceed the supported maximum %d", d, lattice.MaxDims)
	}
	rel := New(header[:d], header[d])
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			if rel.N() == 0 {
				return nil, fmt.Errorf("no data rows")
			}
			return rel, nil
		}
		if err != nil {
			return nil, err
		}
		m, err := strconv.ParseInt(rec[d], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: measure %q is not an integer: %w", line, rec[d], err)
		}
		rel.AppendStrings(rec[:d], m)
	}
}

// mustSerialLoad is serialLoad of a file that loads.
func mustSerialLoad(t testing.TB, file string) *Relation {
	t.Helper()
	rel, err := serialLoad(file)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// FuzzReadCSV holds ReadCSV to serialLoad on arbitrary bytes, at batches of
// one row, of three and at the default size: the same relation, or the same
// error text. The seeds are the inputs that send ReadCSV's line splitter
// to encoding/csv, at the first line or a later one, and the line shapes
// the two read alike only if the splitter gets them right.
func FuzzReadCSV(f *testing.F) {
	long := strings.Repeat("x", csvBufSize+100)
	for _, seed := range []string{
		"a,b,m\nx,y,1\nz,w,-2\n",
		"a,b,m\r\nx,y,1\r\nz,w,2\r\n",                                   // CRLF line ends
		"a,b,m\nx,y,1\r\nz,w,2\n",                                       // CRLF after a plain line
		"\na,b,m\n\nx,y,1\n\n\nz,w,2\n\n",                               // blank lines
		"a,b,m\nx,y,1\nz,w,2",                                           // no final newline
		"a,b,m\nx,y,1\nz,w,2\r",                                         // a lone CR before EOF
		"a,b,m\nx,y\r,1\nz,w,2\n",                                       // a lone CR in a field
		"a,b,m\nx,y,1\n\r\nz,w,2\n",                                     // a line of CR LF
		"a,b,m\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n\"q\",y,13\n14,15,16\n",  // a quote in a later batch
		"a,b,m\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n13,\"q\nr\",14\n15,16\n", // a ragged row after the switch
		"a,b,m\nx,y,1\nx,2\n\"q\",y,3\n",                                // a ragged row before it
		"a,b,m\nx,y,1\nx,y,z,2\n",                                       // a row with a field too many
		"a,b,m\n" + long + ",y,1\nz,w,2\nx,3\n",                         // a line longer than the buffer
		"a,b,m\nx,y,1\n,,2\n ,y , 3\n",
		"a,b,m\nx,y,+4\nx,y,007\nx,y,-0\nx,y,9223372036854775807\nx,y,-9223372036854775808\n",
		"a,b,m\nx,y,9223372036854775808\n",
		"a,b,m\nx,y,1_000\n",
		"a,m\n",
		"a\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, file string) {
		want, wantErr := serialLoad(file)
		withBatchRows(t, func(rows int) {
			got, err := ReadCSV(strings.NewReader(file))
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("batches of %d: err = %v, the serial reader's %q", rows, err, wantErr)
				}
			case err != nil:
				t.Fatalf("batches of %d: %v; the serial reader loads the file", rows, err)
			default:
				requireSameRelation(t, got, want)
			}
		})
	})
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
	want := mustSerialLoad(t, file.String())
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

// mixedCSV is a file of rows rows over an integer column, a text column and
// one that mixes both kinds, each value repeated across the rows.
func mixedCSV(rows int) string {
	var file strings.Builder
	file.WriteString("n,word,mixed,m\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&file, "%d,w%d,", i*7919%3000-1000, i%400)
		if i%3 == 0 {
			fmt.Fprintf(&file, "t%d", i%250)
		} else {
			fmt.Fprintf(&file, "%d", i%600)
		}
		fmt.Fprintf(&file, ",%d\n", i%7)
	}
	return file.String()
}

// TestLoadedRelationHoldsOnlyItsRows pins what a load keeps: Tuples and every
// column's entries at their exact length, and no column index — the cube
// decodes codes and never looks a text up — until the first lookup builds
// every column's at once. A Clone copies a built index, and a clone of an
// unbuilt one stays unbuilt.
func TestLoadedRelationHoldsOnlyItsRows(t *testing.T) {
	file := mixedCSV(10000)
	withBatchRows(t, func(rows int) {
		rel, err := ReadCSV(strings.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		d := rel.Dict
		if cap(rel.Tuples) != len(rel.Tuples) {
			t.Errorf("batches of %d: Tuples has length %d and capacity %d", rows, len(rel.Tuples), cap(rel.Tuples))
		}
		if n := d.spare(); n != 0 {
			t.Errorf("batches of %d: the entries hold %d spare slots", rows, n)
		}
		if n := d.indexedColumns(); n != 0 {
			t.Fatalf("batches of %d: %d columns hold an index after the load, want none", rows, n)
		}
		if n := d.Clone().indexedColumns(); n != 0 {
			t.Errorf("batches of %d: a clone of the loaded dictionary holds %d indexes, want none", rows, n)
		}
		if v, ok := d.Code(1, "w7"); !ok || v != 7 {
			t.Fatalf("batches of %d: Code(w7) = %d, %v; want 7, true", rows, v, ok)
		}
		if n := d.indexedColumns(); n != rel.D() {
			t.Errorf("batches of %d: one Code built %d column indexes, want %d", rows, n, rel.D())
		}
		if n := d.Clone().indexedColumns(); n != rel.D() {
			t.Errorf("batches of %d: a clone of the indexed dictionary holds %d indexes, want %d", rows, n, rel.D())
		}
		requireSameRelation(t, rel, mustSerialLoad(t, file))
	})
}
