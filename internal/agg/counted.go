package agg

import (
	"encoding/binary"
	"fmt"
)

// WithCount wraps an aggregate function so that every state also tracks the
// group's cardinality. Iceberg cube computation (emit only groups with at
// least minSup tuples) needs cardinalities even when the requested function
// is not count; algorithms wrap the spec's function with WithCount and
// consult Cardinality at emission time.
func WithCount(f Func) Func {
	if f.Name() == "count" || Counted(f) {
		// count already is its own cardinality.
		return f
	}
	return countedFunc{inner: f}
}

// Counted reports whether f is a WithCount wrapper of another function.
func Counted(f Func) bool {
	_, ok := f.(countedFunc)
	return ok
}

// Cardinality returns the number of tuples folded into the state, for
// states produced by WithCount or by Count itself.
func Cardinality(s State) (int64, bool) {
	switch st := s.(type) {
	case *countState:
		return int64(*st), true
	case *countedState:
		return st.cnt, true
	}
	return 0, false
}

type countedFunc struct {
	inner Func
}

func (f countedFunc) Name() string { return f.inner.Name() + "+count" }
func (f countedFunc) NewState() State {
	return &countedState{inner: f.inner.NewState()}
}

func (f countedFunc) DecodeState(b []byte) (State, error) {
	cnt, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("agg: truncated counted state")
	}
	inner, err := f.inner.DecodeState(b[n:])
	if err != nil {
		return nil, err
	}
	return &countedState{cnt: cnt, inner: inner}, nil
}

type countedState struct {
	cnt   int64
	inner State
}

func (s *countedState) Add(m int64) {
	s.cnt++
	s.inner.Add(m)
}

func (s *countedState) Merge(o State) {
	os := o.(*countedState)
	s.cnt += os.cnt
	s.inner.Merge(os.inner)
}

// Unmerge is the inner state's, which must be an Inverter (see Invertible).
func (s *countedState) Unmerge(o State) {
	os := o.(*countedState)
	s.cnt -= os.cnt
	s.inner.(Inverter).Unmerge(os.inner)
}

func (s *countedState) Final() float64 { return s.inner.Final() }

func (s *countedState) AppendEncode(buf []byte) []byte {
	buf = binary.AppendVarint(buf, s.cnt)
	return s.inner.AppendEncode(buf)
}
