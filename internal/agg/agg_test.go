package agg

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

var allFuncs = []Func{Count, Sum, Min, Max, Avg, Var, Stddev}

func TestByName(t *testing.T) {
	for _, f := range allFuncs {
		got, err := ByName(f.Name())
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if got.Name() != f.Name() {
			t.Errorf("ByName(%s) = %s", f.Name(), got.Name())
		}
	}
	if _, err := ByName("median"); err == nil {
		t.Error("unknown function must fail")
	}
}

func TestKinds(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max} {
		if f.Kind() != Distributive {
			t.Errorf("%s should be distributive", f.Name())
		}
	}
	if Avg.Kind() != Algebraic {
		t.Error("avg should be algebraic")
	}
	if Distributive.String() != "distributive" || Algebraic.String() != "algebraic" ||
		Holistic.String() != "holistic" || Kind(42).String() != "Kind(42)" {
		t.Error("Kind.String broken")
	}
}

// reference computes the expected final value directly.
func reference(name string, vals []int64) float64 {
	if len(vals) == 0 {
		if name == "count" {
			return 0
		}
		if name == "sum" {
			return 0
		}
		return math.NaN()
	}
	var sum, mn, mx int64
	mn, mx = vals[0], vals[0]
	for _, v := range vals {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := float64(sum) / float64(len(vals))
	variance := 0.0
	for _, v := range vals {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= float64(len(vals))
	switch name {
	case "count":
		return float64(len(vals))
	case "sum":
		return float64(sum)
	case "min":
		return float64(mn)
	case "max":
		return float64(mx)
	case "avg":
		return mean
	case "var":
		return variance
	case "stddev":
		return math.Sqrt(variance)
	}
	panic(name)
}

func eq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	// var/stddev lose precision through the sum-of-squares formulation.
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDirectAggregation(t *testing.T) {
	f := func(raw []int16) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		for _, fn := range allFuncs {
			st := fn.NewState()
			for _, v := range vals {
				st.Add(v)
			}
			if !eq(st.Final(), reference(fn.Name(), vals)) {
				t.Logf("%s: got %v want %v over %v", fn.Name(), st.Final(), reference(fn.Name(), vals), vals)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMergeEquivalentToDirect is the key distributive/algebraic property:
// splitting the input arbitrarily, aggregating the parts, and merging the
// partial states must give the same result as direct aggregation. This is
// exactly what SP-Cube relies on when mappers pre-aggregate skewed groups.
// The merged state must also serialize to the direct state's bytes, for
// every function (distinct and the iceberg count wrapper included): the
// mapper aggregates a fully-skewed tuple once and Merges that state into each
// of its groups' — possibly fresh — states, where it used to Add row by row,
// and the shuffle bytes may not move.
func TestMergeEquivalentToDirect(t *testing.T) {
	f := func(raw []int16, cutSeed uint8) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		cut := 0
		if len(vals) > 0 {
			cut = int(cutSeed) % (len(vals) + 1)
		}
		for _, fn := range allFuncs {
			a, b := fn.NewState(), fn.NewState()
			for _, v := range vals[:cut] {
				a.Add(v)
			}
			for _, v := range vals[cut:] {
				b.Add(v)
			}
			a.Merge(b)
			if !eq(a.Final(), reference(fn.Name(), vals)) {
				t.Logf("%s: merged %v want %v (cut=%d, vals=%v)", fn.Name(), a.Final(), reference(fn.Name(), vals), cut, vals)
				return false
			}
		}
		for _, fn := range append([]Func{Distinct, WithCount(Sum), WithCount(Distinct)}, allFuncs...) {
			direct, a, b, fresh := fn.NewState(), fn.NewState(), fn.NewState(), fn.NewState()
			for i, v := range vals {
				direct.Add(v)
				if i < cut {
					a.Add(v)
				} else {
					b.Add(v)
				}
			}
			a.Merge(b)
			fresh.Merge(direct)
			want := direct.AppendEncode(nil)
			if got := a.AppendEncode(nil); !bytes.Equal(got, want) {
				t.Logf("%s: merged state encodes %x, direct %x (cut=%d, vals=%v)", fn.Name(), got, want, cut, vals)
				return false
			}
			if got := fresh.AppendEncode(nil); !bytes.Equal(got, want) {
				t.Logf("%s: state merged into a fresh one encodes %x, direct %x (vals=%v)", fn.Name(), got, want, vals)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStateSerializationRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		for _, fn := range allFuncs {
			st := fn.NewState()
			for _, v := range raw {
				st.Add(int64(v))
			}
			dec, err := fn.DecodeState(st.AppendEncode(nil))
			if err != nil {
				t.Logf("%s: decode: %v", fn.Name(), err)
				return false
			}
			if !eq(dec.Final(), st.Final()) {
				t.Logf("%s: %v != %v", fn.Name(), dec.Final(), st.Final())
				return false
			}
			// The decoded state must stay mergeable.
			other := fn.NewState()
			other.Add(7)
			dec.Merge(other)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeStateErrors(t *testing.T) {
	for _, fn := range allFuncs {
		if _, err := fn.DecodeState(nil); err == nil {
			t.Errorf("%s: empty state must fail", fn.Name())
		}
	}
	if _, err := Min.DecodeState([]byte{1}); err == nil {
		t.Error("min: truncated payload must fail")
	}
	if _, err := Avg.DecodeState([]byte{2}); err == nil {
		t.Error("avg: missing count must fail")
	}
}

func TestEmptyStates(t *testing.T) {
	if Count.NewState().Final() != 0 {
		t.Error("empty count must be 0")
	}
	if Sum.NewState().Final() != 0 {
		t.Error("empty sum must be 0")
	}
	for _, fn := range []Func{Min, Max, Avg, Var, Stddev} {
		if !math.IsNaN(fn.NewState().Final()) {
			t.Errorf("empty %s must be NaN", fn.Name())
		}
	}
	// Merging an empty extreme state must not clobber a non-empty one.
	st := Max.NewState()
	st.Add(5)
	st.Merge(Max.NewState())
	if st.Final() != 5 {
		t.Error("merging empty max changed the value")
	}
}
