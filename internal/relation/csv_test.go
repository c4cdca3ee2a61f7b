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
