package cube

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

func smallRelation() *relation.Relation {
	rel := relation.New([]string{"name", "city", "year"}, "sales")
	rel.AppendStrings([]string{"laptop", "Rome", "2012"}, 2000)
	rel.AppendStrings([]string{"laptop", "Paris", "2012"}, 1500)
	rel.AppendStrings([]string{"printer", "Rome", "2013"}, 300)
	rel.AppendStrings([]string{"laptop", "Rome", "2013"}, 900)
	return rel
}

func TestBruteKnownValues(t *testing.T) {
	rel := smallRelation()
	res := Brute(rel, agg.Sum)
	// 3 dims -> 8 cuboids. Check a few groups against hand computation.
	laptop := rel.Dict.Encode(0, "laptop")
	rome := rel.Dict.Encode(1, "Rome")
	y2012 := rel.Dict.Encode(2, "2012")

	if v, ok := res.Lookup(0, []relation.Value{0, 0, 0}); !ok || v != 4700 {
		t.Errorf("apex sum = %v %v, want 4700", v, ok)
	}
	if v, ok := res.Lookup(0b001, []relation.Value{laptop, 0, 0}); !ok || v != 4400 {
		t.Errorf("(laptop,*,*) = %v, want 4400", v)
	}
	if v, ok := res.Lookup(0b101, []relation.Value{laptop, 0, y2012}); !ok || v != 3500 {
		t.Errorf("(laptop,*,2012) = %v, want 3500", v)
	}
	if v, ok := res.Lookup(0b111, []relation.Value{laptop, rome, y2012}); !ok || v != 2000 {
		t.Errorf("(laptop,Rome,2012) = %v, want 2000", v)
	}
	if _, ok := res.Lookup(0b111, []relation.Value{99, 99, 99}); ok {
		t.Error("nonexistent group found")
	}
}

func TestBruteGroupCount(t *testing.T) {
	// Each tuple contributes 2^d groups; with all-distinct dims the cube
	// has exactly n·(2^d −1)+1 groups.
	rel := relation.New([]string{"a", "b"}, "m")
	rel.Append([]relation.Value{1, 10}, 1)
	rel.Append([]relation.Value{2, 20}, 1)
	rel.Append([]relation.Value{3, 30}, 1)
	res := Brute(rel, agg.Count)
	if res.Len() != 3*3+1 {
		t.Errorf("groups = %d, want 10", res.Len())
	}
}

func TestResultEqual(t *testing.T) {
	rel := smallRelation()
	a := Brute(rel, agg.Count)
	b := Brute(rel, agg.Count)
	if ok, diff := a.Equal(b); !ok {
		t.Fatalf("identical results differ: %s", diff)
	}
	// Mutate one value.
	for key := range b.Groups {
		b.Groups[key] += 1
		break
	}
	if ok, _ := a.Equal(b); ok {
		t.Error("differing values not detected")
	}
	c := NewResult(3)
	if ok, _ := a.Equal(c); ok {
		t.Error("size mismatch not detected")
	}
	// NaN values (empty min/max) must compare equal.
	d1, d2 := NewResult(1), NewResult(1)
	d1.Add(0, nil, math.NaN())
	d2.Add(0, nil, math.NaN())
	if ok, diff := d1.Equal(d2); !ok {
		t.Errorf("NaN == NaN expected: %s", diff)
	}
}

func TestCuboidExtraction(t *testing.T) {
	rel := smallRelation()
	res := Brute(rel, agg.Sum)
	groups := res.Cuboid(0b001) // by name
	if len(groups) != 2 {
		t.Fatalf("name cuboid: %d groups", len(groups))
	}
	if relation.ComparePacked(groups[0].Packed, groups[1].Packed) >= 0 {
		t.Error("cuboid not sorted")
	}
	var total float64
	for _, g := range groups {
		total += g.Value
	}
	if total != 4700 {
		t.Errorf("name cuboid total %v", total)
	}
}

func TestEncodeDecodeFinal(t *testing.T) {
	for _, v := range []float64{0, 1, -3.5, 1e300, math.Inf(1), math.NaN()} {
		got := DecodeFinal(EncodeFinal(v))
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Errorf("NaN round trip: %v", got)
			}
			continue
		}
		if got != v {
			t.Errorf("%v -> %v", v, got)
		}
	}
}

func TestLookupRandomAgainstRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := relation.New([]string{"a", "b", "c"}, "m")
	for i := 0; i < 500; i++ {
		rel.Append([]relation.Value{
			relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)),
		}, 1)
	}
	res := Brute(rel, agg.Count)
	for trial := 0; trial < 100; trial++ {
		tu := rel.Tuples[rng.Intn(rel.N())]
		mask := lattice.Mask(rng.Intn(8))
		want := 0
		for _, other := range rel.Tuples {
			if relation.CompareProjected(tu.Dims, other.Dims, uint32(mask)) == 0 {
				want++
			}
		}
		if v, ok := res.Lookup(mask, tu.Dims); !ok || v != float64(want) {
			t.Fatalf("Lookup(%b) = %v,%v want %d", mask, v, ok, want)
		}
	}
}

// TestRunFileLimit: a file a row's 32-bit offset cannot address is refused by
// name instead of indexed with wrapped offsets.
func TestRunFileLimit(t *testing.T) {
	rec := append([]byte(relation.GroupKeyPacked(1, []relation.Value{7})), '\t')
	rec = append(rec, EncodeFinal(1)...)
	defer func(old int64) { maxFileBytes = old }(maxFileBytes)
	maxFileBytes = int64(2*len(rec) - 1)
	if _, err := indexFile("out/x/part-0", files{rec}, 0, 1); err != nil {
		t.Fatalf("a file under the limit: %v", err)
	}
	_, err := indexFile("out/x/part-0", files{append(rec, rec...)}, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "out/x/part-0") {
		t.Fatalf("a file over the limit: error %v, want one naming the file", err)
	}
}
