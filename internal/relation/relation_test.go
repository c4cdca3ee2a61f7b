package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGroupKeyRoundTrip(t *testing.T) {
	f := func(maskSeed uint16, raw []int32) bool {
		d := len(raw)
		if d == 0 || d > 16 {
			return true
		}
		mask := uint32(maskSeed) & (1<<uint(d) - 1)
		dims := make([]Value, d)
		for i, v := range raw {
			dims[i] = v
		}
		key := GroupKey(mask, dims)
		gotMask, gotVals, err := DecodeGroupKey(key)
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return gotMask == mask && reflect.DeepEqual(gotVals, Project(dims, mask))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGroupKeyInjective(t *testing.T) {
	// Distinct (mask, projection) pairs must encode to distinct keys.
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string][2]interface{})
	for i := 0; i < 20000; i++ {
		d := 1 + rng.Intn(6)
		mask := uint32(rng.Intn(1 << uint(d)))
		dims := make([]Value, d)
		for j := range dims {
			dims[j] = Value(rng.Intn(5) - 2)
		}
		key := GroupKey(mask, dims)
		proj := Project(dims, mask)
		if prev, ok := seen[key]; ok {
			if prev[0].(uint32) != mask || !reflect.DeepEqual(prev[1].([]Value), proj) {
				t.Fatalf("collision: key %q for (%v,%v) and (%v,%v)", key, prev[0], prev[1], mask, proj)
			}
		}
		seen[key] = [2]interface{}{mask, proj}
	}
}

func TestScanGroupKeyWithTrailer(t *testing.T) {
	dims := []Value{5, -3, 7}
	key := EncodeGroupKey(nil, 0b101, dims)
	withTrailer := append(append([]byte(nil), key...), 0xde, 0xad)
	mask, vals, n, err := ScanGroupKey(withTrailer)
	if err != nil {
		t.Fatal(err)
	}
	if mask != 0b101 || n != len(key) {
		t.Errorf("mask=%b n=%d want %b %d", mask, n, 0b101, len(key))
	}
	if !reflect.DeepEqual(vals, []Value{5, 7}) {
		t.Errorf("vals=%v", vals)
	}
}

func TestDecodeGroupKeyErrors(t *testing.T) {
	if _, _, err := DecodeGroupKey(""); err == nil {
		t.Error("empty key should fail")
	}
	// Mask says 2 values, only 1 present.
	key := string(EncodeGroupKey(nil, 0b11, []Value{1, 2}))
	if _, _, err := DecodeGroupKey(key[:len(key)-1]); err == nil {
		t.Error("truncated key should fail")
	}
	if _, _, err := DecodeGroupKey(key + "x"); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	f := func(raw []int32, measure int64) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		dims := make([]Value, len(raw))
		for i, v := range raw {
			dims[i] = v
		}
		enc := EncodeTuple(nil, Tuple{Dims: dims, Measure: measure})
		got, err := DecodeTuple(enc, len(dims))
		if err != nil {
			return false
		}
		return got.Measure == measure && reflect.DeepEqual(got.Dims, dims)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareProjected(t *testing.T) {
	a := []Value{1, 5, 2}
	b := []Value{1, 3, 9}
	if CompareProjected(a, b, 0b001) != 0 {
		t.Error("equal on dim 0")
	}
	if CompareProjected(a, b, 0b010) != 1 {
		t.Error("a > b on dim 1")
	}
	if CompareProjected(a, b, 0b110) != 1 {
		t.Error("dim 1 decides before dim 2")
	}
	if CompareProjected(a, b, 0b100) != -1 {
		t.Error("a < b on dim 2")
	}
	if CompareProjected(a, b, 0) != 0 {
		t.Error("empty mask compares equal")
	}
}

func TestCompareProjectedConsistentWithPacked(t *testing.T) {
	f := func(x, y [4]int32, maskSeed uint8) bool {
		mask := uint32(maskSeed) & 0xF
		a := []Value{x[0], x[1], x[2], x[3]}
		b := []Value{y[0], y[1], y[2], y[3]}
		return CompareProjected(a, b, mask) == ComparePacked(Project(a, mask), Project(b, mask))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary(2)
	a := d.Encode(0, "laptop")
	b := d.Encode(0, "printer")
	if a == b {
		t.Error("distinct strings must get distinct codes")
	}
	if got := d.Encode(0, "laptop"); got != a {
		t.Error("repeated encode must be stable")
	}
	if s, ok := d.Decode(0, a); !ok || s != "laptop" {
		t.Errorf("decode: %q %v", s, ok)
	}
	if _, ok := d.Decode(0, 99); ok {
		t.Error("unknown code must not decode")
	}
	if d.Cardinality(0) != 2 || d.Cardinality(1) != 0 {
		t.Error("cardinality wrong")
	}
}

func TestRelationAppendAndRestrict(t *testing.T) {
	rel := New([]string{"name", "city", "year"}, "sales")
	rel.AppendStrings([]string{"laptop", "Rome", "2012"}, 2000)
	rel.AppendStrings([]string{"printer", "Paris", "2012"}, 300)
	if rel.N() != 2 || rel.D() != 3 {
		t.Fatalf("n=%d d=%d", rel.N(), rel.D())
	}
	sub := rel.Restrict([]int{2, 0})
	if sub.D() != 2 || sub.Schema.DimNames[0] != "year" || sub.Schema.DimNames[1] != "name" {
		t.Fatalf("restrict schema: %v", sub.Schema.DimNames)
	}
	if got := sub.DimString(1, sub.Tuples[1].Dims[1]); got != "printer" {
		t.Errorf("restricted dictionary broken: %q", got)
	}
	// An integer-kind entry ("2012" is stored as its value) survives too.
	if got := sub.DimString(0, sub.Tuples[1].Dims[0]); got != "2012" || sub.Dict.Cardinality(0) != 1 {
		t.Errorf("restricted dictionary broken: year %q, cardinality %d", got, sub.Dict.Cardinality(0))
	}
	// Mutating the restricted copy must not touch the original.
	sub.Tuples[0].Dims[0] = 99
	if rel.Tuples[0].Dims[2] == 99 {
		t.Error("Restrict must deep-copy tuples")
	}
}

func TestFormatGroup(t *testing.T) {
	rel := New([]string{"name", "city", "year"}, "sales")
	rel.AppendStrings([]string{"laptop", "Rome", "2012"}, 2000)
	tup := rel.Tuples[0]
	got := FormatGroup(rel, 0b101, Project(tup.Dims, 0b101), 3)
	if got != "(laptop,*,2012)" {
		t.Errorf("FormatGroup = %q, want (laptop,*,2012)", got)
	}
	if got := FormatGroup(nil, 0, nil, 3); got != "(*,*,*)" {
		t.Errorf("apex format = %q", got)
	}
}

func TestGroupVals(t *testing.T) {
	out := GroupVals(0b101, []Value{7, 9}, 3)
	if !reflect.DeepEqual(out, []Value{7, 0, 9}) {
		t.Errorf("GroupVals = %v", out)
	}
}
