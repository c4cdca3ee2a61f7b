package relation

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"sync"
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
		requireSameRelation(t, got, mustSerialLoad(t, file.String()))
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

// TestTextLookupInverse: a code reads as its entry, or as its decimal when
// it has none, and a text names the code that reads as it — so text → code
// → text is the identity for every code, on a column with entries, on one
// without, and without a dictionary. Nothing else names a code: not a
// non-canonical decimal, and not the decimal of a code that has an entry.
func TestTextLookupInverse(t *testing.T) {
	d := NewDictionary(2)
	for _, s := range []string{"laptop", "phone", "42"} {
		d.Encode(0, s)
	}
	columns := []struct {
		name string
		dict *Dictionary
		col  int
	}{{"entries", d, 0}, {"no entries", d, 1}, {"no dictionary", nil, 0}}
	for _, c := range columns {
		for v := Value(-3); v <= 45; v++ {
			text := c.dict.Text(c.col, v)
			got, ok := c.dict.Lookup(c.col, text)
			if !ok || c.dict.Text(c.col, got) != text {
				t.Errorf("%s: code %d reads %q, which resolves to %d (%v)", c.name, v, text, got, ok)
			}
		}
	}
	for _, tc := range []struct {
		col  int
		text string
		code Value
		ok   bool
	}{
		{0, "phone", 1, true},
		{0, "42", 2, true}, // an entry's text, although code 42 exists too
		{0, "5", 5, true},  // the decimal of a code without an entry
		{0, "-1", -1, true},
		{0, "0", 0, false}, // code 0 reads as laptop
		{0, "2", 0, false},
		{0, "007", 0, false},
		{0, "-0", 0, false},
		{0, "tablet", 0, false},
		{1, "0", 0, true},
		{1, "007", 0, false},
		{1, "-0", 0, false},
		{1, "+5", 0, false},
	} {
		if got, ok := d.Lookup(tc.col, tc.text); got != tc.code || ok != tc.ok {
			t.Errorf("column %d: Lookup(%q) = %d, %v; want %d, %v", tc.col, tc.text, got, ok, tc.code, tc.ok)
		}
	}
	var none *Dictionary
	for _, text := range []string{"007", "-0", "x"} {
		if _, ok := none.Lookup(0, text); ok {
			t.Errorf("no dictionary: %q names a code", text)
		}
	}
}

// TestDictionaryProbeChainsStayShort: a server encodes values its clients
// choose, so the index must not let a crafted column pile its entries into
// one run of slots. Under a hash that keeps a value's low bits, multiples of
// 1<<20 and integers that share their low 16 bits start their probes at a
// few slots, and sequential integers fill one run of slots that those
// probes must cross; under the dictionary's seeded hash the longest probe
// stays short.
func TestDictionaryProbeChainsStayShort(t *testing.T) {
	const n = 1 << 16
	seen := make(map[int32]bool, n)
	var vals []int32
	add := func(v int32) {
		if len(vals) < n && !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	for i := range int32(1 << 12) {
		add(i << 20)
		add(i<<16 | 0xbeef)
		add(-i<<16 | 0xbeef)
	}
	for i := int32(1); len(vals) < n; i++ {
		add(i)
	}
	d := NewDictionary(1)
	for _, v := range vals {
		d.Encode(0, strconv.Itoa(int(v)))
	}
	if d.Cardinality(0) != n {
		t.Fatalf("Cardinality = %d, want %d", d.Cardinality(0), n)
	}
	// Over 800 seeds the longest probe read 20–81 slots, median 28 and 99th
	// percentile 44; a hash of the low bits alone makes it 8,191.
	if got := d.longestProbe(0); got > 128 {
		t.Fatalf("longest probe reads %d slots of the index, want at most 128", got)
	}
}

// TestLazyIndexFirstLookupsRace: a served dictionary's first lookups come
// from concurrent HTTP readers, and one of them builds the index that the
// load left unbuilt. Eight goroutines make the first Lookup and Code calls
// of a loaded dictionary at once, over every column — present and absent
// values, both kinds — and each answer must equal a serial read's of the
// same file. Under -race it also holds the build to one writer.
func TestLazyIndexFirstLookupsRace(t *testing.T) {
	file := mixedCSV(6000)
	type answer struct {
		v  Value
		ok bool
	}
	var texts []string
	for i := -1100; i < 2100; i += 7 {
		texts = append(texts, strconv.Itoa(i), "w"+strconv.Itoa(i), "t"+strconv.Itoa(i))
	}
	read := func(d *Dictionary) []answer {
		var out []answer
		for col := range 3 {
			for _, s := range texts {
				v, ok := d.Lookup(col, s)
				out = append(out, answer{v, ok})
				v, ok = d.Code(col, s)
				out = append(out, answer{v, ok})
			}
		}
		return out
	}
	want := read(mustSerialLoad(t, file).Dict)
	rel, err := ReadCSV(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([][]answer, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[r] = read(rel.Dict)
		}()
	}
	close(start)
	wg.Wait()
	for r, g := range got {
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("reader %d, answer %d: %v, a serial read's %v", r, i, g[i], want[i])
			}
		}
	}
}
