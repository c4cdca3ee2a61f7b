package agg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWithCountTracksCardinality(t *testing.T) {
	f := WithCount(Sum)
	st := f.NewState()
	for i := 0; i < 7; i++ {
		st.Add(int64(i))
	}
	if c, ok := Cardinality(st); !ok || c != 7 {
		t.Errorf("cardinality = %v,%v", c, ok)
	}
	if st.Final() != 21 {
		t.Errorf("inner sum = %v", st.Final())
	}
	other := f.NewState()
	other.Add(100)
	st.Merge(other)
	if c, _ := Cardinality(st); c != 8 {
		t.Errorf("merged cardinality = %v", c)
	}
	if st.Final() != 121 {
		t.Errorf("merged sum = %v", st.Final())
	}
}

func TestWithCountOnCountIsIdentity(t *testing.T) {
	f := WithCount(Count)
	if f.Name() != "count" {
		t.Errorf("WithCount(Count) should stay count, got %s", f.Name())
	}
	st := f.NewState()
	st.Add(1)
	st.Add(1)
	if c, ok := Cardinality(st); !ok || c != 2 {
		t.Errorf("count cardinality = %v,%v", c, ok)
	}
}

// TestCounted: WithCount wraps once — wrapping a counted function again
// returns it — and Counted tells its wrappers from every built-in function.
func TestCounted(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max, Avg, Var, Stddev, Distinct} {
		counted := WithCount(f)
		if Counted(f) || Counted(counted) == (f == Count) || WithCount(counted) != counted {
			t.Errorf("%s: Counted(f) %v, Counted(WithCount(f)) %v, WithCount twice is %s",
				f.Name(), Counted(f), Counted(counted), WithCount(counted).Name())
		}
	}
}

func TestWithCountSerialization(t *testing.T) {
	f := quickCheckRoundTrip(t, WithCount(Avg))
	_ = f
}

func quickCheckRoundTrip(t *testing.T, f Func) Func {
	t.Helper()
	check := func(raw []int16) bool {
		st := f.NewState()
		for _, v := range raw {
			st.Add(int64(v))
		}
		dec, err := f.DecodeState(st.AppendEncode(nil))
		if err != nil {
			return false
		}
		c1, ok1 := Cardinality(st)
		c2, ok2 := Cardinality(dec)
		if ok1 != ok2 || c1 != c2 {
			return false
		}
		return eq(dec.Final(), st.Final())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	return f
}

func TestCardinalityUnavailable(t *testing.T) {
	st := Sum.NewState()
	st.Add(1)
	if _, ok := Cardinality(st); ok {
		t.Error("plain sum must not report cardinality")
	}
}

func TestDistinctBasics(t *testing.T) {
	st := Distinct.NewState()
	for _, v := range []int64{5, 3, 5, -2, 3, 5} {
		st.Add(v)
	}
	if st.Final() != 3 {
		t.Errorf("distinct = %v, want 3", st.Final())
	}
	other := Distinct.NewState()
	other.Add(-2)
	other.Add(99)
	st.Merge(other)
	if st.Final() != 4 {
		t.Errorf("merged distinct = %v, want 4", st.Final())
	}
}

func TestDistinctSerializationRoundTrip(t *testing.T) {
	check := func(raw []int32) bool {
		st := Distinct.NewState()
		for _, v := range raw {
			st.Add(int64(v))
		}
		enc := st.AppendEncode(nil)
		dec, err := Distinct.DecodeState(enc)
		if err != nil {
			return false
		}
		if dec.Final() != st.Final() {
			return false
		}
		// Canonical encoding: re-encoding the decoded state is identical.
		enc2 := dec.AppendEncode(nil)
		return string(enc) == string(enc2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctMergeEquivalentToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20) - 10)
		}
		direct := Distinct.NewState()
		parts := []State{Distinct.NewState(), Distinct.NewState(), Distinct.NewState()}
		for i, v := range vals {
			direct.Add(v)
			parts[i%3].Add(v)
		}
		merged := parts[0]
		merged.Merge(parts[1])
		merged.Merge(parts[2])
		if merged.Final() != direct.Final() {
			t.Fatalf("merge %v != direct %v", merged.Final(), direct.Final())
		}
	}
}

func TestDistinctDecodeErrors(t *testing.T) {
	if _, err := Distinct.DecodeState(nil); err == nil {
		t.Error("empty distinct state must fail")
	}
	// Claims 3 values but provides none.
	if _, err := Distinct.DecodeState([]byte{3}); err == nil {
		t.Error("truncated distinct state must fail")
	}
}

func TestDistinctByName(t *testing.T) {
	f, err := ByName("distinct")
	if err != nil || f.Name() != "distinct" {
		t.Fatalf("ByName(distinct): %v %v", f, err)
	}
}
