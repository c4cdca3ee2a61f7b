package relation

import (
	"strings"
	"testing"
)

func TestReadCSVRejectsBadShapes(t *testing.T) {
	wide := strings.Repeat("d,", 33) + "m\n" + strings.Repeat("x,", 33) + "1\n"
	cases := []struct {
		name, csv, want string
	}{
		{"empty", "", "header"},
		{"one column", "just\na\n", "measure column"},
		{"too many dimensions", wide, "exceed the supported maximum"},
		{"header only", "a,m\n", "no data rows"},
		{"non-integer measure", "a,m\nx,1\ny,notanumber\n", `line 3: measure "notanumber"`},
		{"ragged row", "a,b,m\nx,y,1\nx,2\n", "wrong number of fields"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.csv))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
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
