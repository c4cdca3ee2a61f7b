package relation

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// FuzzDictionaryRoundTrip holds the two-kind dictionary to the plain one it
// replaced — a map[string]int32 and a []string: the same first-seen dense
// codes in the same order, whichever kind each value takes, and every value's
// own bytes back from Decode. The input is one column, a value per line. The
// same values written as a three-column CSV file — the column as given,
// reversed and rotated — load in batches of three rows to what a serial
// AppendStrings loop over the file makes of it.
func FuzzDictionaryRoundTrip(f *testing.F) {
	f.Add("0\n-1\n007\n+5\n-0\n2147483647\n2147483648\n-2147483648\n-2147483649\n\n 1\n1e3\n١٢")
	f.Add("1\napple\n2\npear\n1\napple\n3\n-\n--1\n00\n9999999999\n99999999999")
	f.Add("")
	f.Fuzz(func(t *testing.T, column string) {
		d := NewDictionary(2)
		ref := make(map[string]Value)
		var order []string
		for _, s := range strings.Split(column, "\n") {
			want, seen := ref[s]
			if got, ok := d.Code(1, s); ok != seen || (ok && got != want) {
				t.Fatalf("Code(%q) = %d, %v; reference %d, %v", s, got, ok, want, seen)
			}
			if !seen {
				want = Value(len(order))
				ref[s] = want
				order = append(order, s)
			}
			if got := d.Encode(1, s); got != want {
				t.Fatalf("Encode(%q) = %d, reference %d", s, got, want)
			}
		}
		if d.Cardinality(1) != len(order) || d.Cardinality(0) != 0 {
			t.Fatalf("Cardinality = %d and %d, want %d and 0", d.Cardinality(1), d.Cardinality(0), len(order))
		}
		for code, want := range order {
			if got, ok := d.Decode(1, Value(code)); !ok || got != want {
				t.Fatalf("Decode(%d) = %q, %v; want %q", code, got, ok, want)
			}
		}
		if _, ok := d.Decode(1, Value(len(order))); ok {
			t.Fatal("Decode of an unassigned code must miss")
		}
		if _, ok := d.Decode(1, -1); ok {
			t.Fatal("Decode of a negative code must miss")
		}

		values := strings.Split(column, "\n")
		var file bytes.Buffer
		cw := csv.NewWriter(&file)
		cw.Write([]string{"a", "b", "c", "m"})
		for i, s := range values {
			cw.Write([]string{s, values[len(values)-1-i], values[(i+len(values)/2)%len(values)], strconv.Itoa(i)})
		}
		cw.Flush()
		defer func(old int) { csvBatchRows = old }(csvBatchRows)
		csvBatchRows = 3
		got, err := ReadCSV(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRelation(t, got, serialLoad(t, file.String()))
	})
}

func TestCanonicalInt32(t *testing.T) {
	for s, want := range map[string]bool{
		"0": true, "7": true, "-1": true, "10": true, "2147483647": true, "-2147483648": true,
		"": false, "-": false, "-0": false, "00": false, "007": false, "-07": false, "+5": false,
		"2147483648": false, "-2147483649": false, "99999999999": false, " 1": false, "1 ": false,
		"1e3": false, "0x1": false, "١٢": false, "1.0": false,
	} {
		if _, ok := canonicalInt32(s); ok != want {
			t.Errorf("canonicalInt32(%q) ok = %v, want %v", s, ok, want)
		}
	}
}

// TestDictionaryCloneIsIndependent: incremental ingestion encodes a batch
// into a Clone while readers still hold the original, which must not see the
// clone's new codes — of either kind.
func TestDictionaryCloneIsIndependent(t *testing.T) {
	d := NewDictionary(1)
	for _, s := range []string{"5", "apple", "-17", "pear"} {
		d.Encode(0, s)
	}
	cl := d.Clone()
	if a, b := cl.Encode(0, "6"), cl.Encode(0, "fig"); a != 4 || b != 5 {
		t.Fatalf("clone assigned codes %d, %d; want 4, 5", a, b)
	}
	if d.Cardinality(0) != 4 {
		t.Errorf("original Cardinality = %d after encoding into the clone, want 4", d.Cardinality(0))
	}
	for _, s := range []string{"6", "fig"} {
		if _, ok := d.Code(0, s); ok {
			t.Errorf("original resolves %q, which only the clone has seen", s)
		}
	}
	if got := d.Encode(0, "kiwi"); got != 4 {
		t.Errorf("original assigned code %d, want 4", got)
	}
	if s, _ := cl.Decode(0, 4); s != "6" {
		t.Errorf("clone's code 4 decodes to %q after the original moved on, want \"6\"", s)
	}
	for code, want := range []string{"5", "apple", "-17", "pear"} {
		if s, ok := cl.Decode(0, Value(code)); !ok || s != want {
			t.Errorf("clone Decode(%d) = %q, %v; want %q", code, s, ok, want)
		}
	}
}

// TestDictionaryDoesNotPinItsInput: encoding/csv hands out the fields of a
// record as substrings of one string per record, so an entry that kept the
// field as given would keep the whole input line alive (and hand a view of it
// to whoever decodes the code).
func TestDictionaryDoesNotPinItsInput(t *testing.T) {
	line := strings.Repeat("x", 1<<20) + ",tail"
	d := NewDictionary(1)
	code := d.Encode(0, line[len(line)-4:])
	s, ok := d.Decode(0, code)
	if !ok || s != "tail" {
		t.Fatalf("Decode = %q, %v", s, ok)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < lo+uintptr(len(line)) {
		t.Error("the dictionary entry aliases the line its value was cut from")
	}
}
