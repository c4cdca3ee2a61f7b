package agg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Var and Stddev are algebraic functions (population variance / standard
// deviation): like avg, a constant-size partial state — (count, sum, sum of
// squares) — merges exactly, so SP-Cube's mapper-side pre-aggregation of
// skewed c-groups applies to them unchanged.
var (
	Var    Func = momentsFunc{stddev: false}
	Stddev Func = momentsFunc{stddev: true}
)

type momentsFunc struct {
	stddev bool
}

func (f momentsFunc) Name() string {
	if f.stddev {
		return "stddev"
	}
	return "var"
}

func (f momentsFunc) NewState() State { return &momentsState{stddev: f.stddev} }

func (f momentsFunc) DecodeState(b []byte) (State, error) {
	st := &momentsState{stddev: f.stddev}
	var n int
	st.cnt, n = binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("agg: truncated %s state count", f.Name())
	}
	b = b[n:]
	st.sum, n = binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("agg: truncated %s state sum", f.Name())
	}
	b = b[n:]
	st.sqHi, n = binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("agg: truncated %s state sumsq hi", f.Name())
	}
	b = b[n:]
	st.sqLo, n = binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("agg: truncated %s state sumsq lo", f.Name())
	}
	return st, nil
}

// momentsState accumulates the first two moments. The sum of squares is an
// unsigned 128-bit integer (sqHi:sqLo): m² fits in a uint64 for any int64
// measure and the running total would overflow int64 at ~3M tuples of
// measure 10^6, while 2^128 holds >10^19 maximal squares. Integer modular
// addition is associative and commutative, so — unlike the float64
// accumulator it replaces — the state is byte-identical no matter how
// combiner runs regroup it (spill-induced per-chunk combining included),
// which the engine's cross-budget determinism contract depends on.
type momentsState struct {
	cnt    int64
	sum    int64
	sqHi   uint64
	sqLo   uint64
	stddev bool
}

func (s *momentsState) Add(m int64) {
	s.cnt++
	s.sum += m
	um := uint64(m)
	if m < 0 {
		um = -um // two's complement |m|; correct even for MinInt64
	}
	hi, lo := bits.Mul64(um, um)
	var carry uint64
	s.sqLo, carry = bits.Add64(s.sqLo, lo, 0)
	s.sqHi, _ = bits.Add64(s.sqHi, hi, carry)
}

func (s *momentsState) Merge(o State) {
	os := o.(*momentsState)
	s.cnt += os.cnt
	s.sum += os.sum
	var carry uint64
	s.sqLo, carry = bits.Add64(s.sqLo, os.sqLo, 0)
	s.sqHi, _ = bits.Add64(s.sqHi, os.sqHi, carry)
}

// Unmerge subtracts the moments Merge added, the sum of squares with a
// 128-bit borrow: modular arithmetic, so it is exact for any state.
func (s *momentsState) Unmerge(o State) {
	os := o.(*momentsState)
	s.cnt -= os.cnt
	s.sum -= os.sum
	var borrow uint64
	s.sqLo, borrow = bits.Sub64(s.sqLo, os.sqLo, 0)
	s.sqHi, _ = bits.Sub64(s.sqHi, os.sqHi, borrow)
}

func (s *momentsState) Final() float64 {
	if s.cnt == 0 {
		return math.NaN()
	}
	mean := float64(s.sum) / float64(s.cnt)
	sumsq := float64(s.sqHi)*0x1p64 + float64(s.sqLo)
	v := sumsq/float64(s.cnt) - mean*mean
	if v < 0 {
		v = 0 // floating-point guard
	}
	if s.stddev {
		return math.Sqrt(v)
	}
	return v
}

func (s *momentsState) AppendEncode(buf []byte) []byte {
	buf = binary.AppendVarint(buf, s.cnt)
	buf = binary.AppendVarint(buf, s.sum)
	buf = binary.AppendUvarint(buf, s.sqHi)
	return binary.AppendUvarint(buf, s.sqLo)
}
