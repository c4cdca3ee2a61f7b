// Package agg provides the aggregate-function framework for cube
// computation.
//
// Following the classification of Gray et al. adopted by the paper (§7),
// functions are distributive (count, sum, min, max), algebraic (avg — a
// bounded-size partial state combines into the final answer), or holistic.
// SP-Cube supports all distributive and algebraic functions because skewed
// c-groups are partially aggregated in the mappers and the partial states
// are merged by the skew reducer; the framework therefore revolves around a
// serializable, mergeable partial State. Incremental maintenance merges the
// same states, and takes deleted tuples' states out again through Inverter.
package agg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// State is a mergeable, serializable partial aggregate.
type State interface {
	// Add folds one tuple's measure value into the state.
	Add(measure int64)
	// Merge folds another partial state of the same function into this one.
	Merge(other State)
	// Final returns the aggregate value represented by the state.
	Final() float64
	// AppendEncode serializes the state, appending to buf.
	AppendEncode(buf []byte) []byte
}

// Func is an aggregate function: a factory of partial states plus decoding.
type Func interface {
	Name() string
	NewState() State
	// DecodeState parses a state serialized by State.AppendEncode.
	DecodeState(b []byte) (State, error)
}

// Inverter is a State whose Merge has an exact inverse: count, sum, avg, var
// and stddev, whose states are integer sums. Min, max and distinct have none
// (removing the minimum reveals an unknown runner-up).
type Inverter interface {
	// Unmerge removes from the state a partial state of the same function
	// that was merged into it, leaving the state of the remaining tuples.
	Unmerge(part State)
}

// Invertible reports whether f's states are Inverters; a WithCount wrapper's
// are when its inner function's are.
func Invertible(f Func) bool {
	st := f.NewState()
	if c, ok := st.(*countedState); ok {
		st = c.inner
	}
	_, ok := st.(Inverter)
	return ok
}

// ByName returns the built-in aggregate function with the given name.
func ByName(name string) (Func, error) {
	switch name {
	case "count":
		return Count, nil
	case "sum":
		return Sum, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "avg":
		return Avg, nil
	case "distinct":
		return Distinct, nil
	case "var":
		return Var, nil
	case "stddev":
		return Stddev, nil
	}
	return nil, fmt.Errorf("agg: unknown aggregate function %q (want count, sum, min, max, avg, var, stddev, distinct)", name)
}

// Built-in aggregate functions. The paper's experiments use count; the
// running example uses sum.
var (
	Count Func = countFunc{}
	Sum   Func = sumFunc{}
	Min   Func = minFunc{}
	Max   Func = maxFunc{}
	Avg   Func = avgFunc{}
)

// ---- count ----

type countFunc struct{}

func (countFunc) Name() string    { return "count" }
func (countFunc) NewState() State { return new(countState) }
func (countFunc) DecodeState(b []byte) (State, error) {
	v, err := decodeOneVarint(b, "count")
	if err != nil {
		return nil, err
	}
	s := countState(v)
	return &s, nil
}

type countState int64

func (s *countState) Add(int64)       { *s++ }
func (s *countState) Merge(o State)   { *s += *o.(*countState) }
func (s *countState) Unmerge(o State) { *s -= *o.(*countState) }
func (s *countState) Final() float64  { return float64(*s) }
func (s *countState) AppendEncode(buf []byte) []byte {
	return binary.AppendVarint(buf, int64(*s))
}

// ---- sum ----

type sumFunc struct{}

func (sumFunc) Name() string    { return "sum" }
func (sumFunc) NewState() State { return new(sumState) }
func (sumFunc) DecodeState(b []byte) (State, error) {
	v, err := decodeOneVarint(b, "sum")
	if err != nil {
		return nil, err
	}
	s := sumState(v)
	return &s, nil
}

type sumState int64

func (s *sumState) Add(m int64)     { *s += sumState(m) }
func (s *sumState) Merge(o State)   { *s += *o.(*sumState) }
func (s *sumState) Unmerge(o State) { *s -= *o.(*sumState) }
func (s *sumState) Final() float64  { return float64(*s) }
func (s *sumState) AppendEncode(buf []byte) []byte {
	return binary.AppendVarint(buf, int64(*s))
}

// ---- min / max ----

type minFunc struct{}

func (minFunc) Name() string                        { return "min" }
func (minFunc) NewState() State                     { return &extremeState{min: true, empty: true} }
func (minFunc) DecodeState(b []byte) (State, error) { return decodeExtreme(b, true) }

type maxFunc struct{}

func (maxFunc) Name() string                        { return "max" }
func (maxFunc) NewState() State                     { return &extremeState{min: false, empty: true} }
func (maxFunc) DecodeState(b []byte) (State, error) { return decodeExtreme(b, false) }

type extremeState struct {
	val   int64
	min   bool
	empty bool
}

func (s *extremeState) Add(m int64) {
	if s.empty || (s.min && m < s.val) || (!s.min && m > s.val) {
		s.val = m
		s.empty = false
	}
}

func (s *extremeState) Merge(o State) {
	os := o.(*extremeState)
	if os.empty {
		return
	}
	s.Add(os.val)
}

func (s *extremeState) Final() float64 {
	if s.empty {
		return math.NaN()
	}
	return float64(s.val)
}

func (s *extremeState) AppendEncode(buf []byte) []byte {
	if s.empty {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return binary.AppendVarint(buf, s.val)
}

func decodeExtreme(b []byte, min bool) (State, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("agg: empty extreme state")
	}
	s := &extremeState{min: min, empty: b[0] == 0}
	if !s.empty {
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return nil, fmt.Errorf("agg: truncated extreme state")
		}
		s.val = v
	}
	return s, nil
}

// ---- avg ----

type avgFunc struct{}

func (avgFunc) Name() string    { return "avg" }
func (avgFunc) NewState() State { return new(avgState) }
func (avgFunc) DecodeState(b []byte) (State, error) {
	sum, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("agg: truncated avg state")
	}
	cnt, n2 := binary.Varint(b[n:])
	if n2 <= 0 {
		return nil, fmt.Errorf("agg: truncated avg state count")
	}
	return &avgState{sum: sum, cnt: cnt}, nil
}

// avgState is the canonical algebraic partial state: the skew reducer sums
// the mappers' partial sums and counts, then divides (§5.1).
type avgState struct {
	sum int64
	cnt int64
}

func (s *avgState) Add(m int64) { s.sum += m; s.cnt++ }
func (s *avgState) Merge(o State) {
	os := o.(*avgState)
	s.sum += os.sum
	s.cnt += os.cnt
}

func (s *avgState) Unmerge(o State) {
	os := o.(*avgState)
	s.sum -= os.sum
	s.cnt -= os.cnt
}

func (s *avgState) Final() float64 {
	if s.cnt == 0 {
		return math.NaN()
	}
	return float64(s.sum) / float64(s.cnt)
}

func (s *avgState) AppendEncode(buf []byte) []byte {
	buf = binary.AppendVarint(buf, s.sum)
	return binary.AppendVarint(buf, s.cnt)
}

func decodeOneVarint(b []byte, what string) (int64, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, fmt.Errorf("agg: truncated %s state", what)
	}
	return v, nil
}
