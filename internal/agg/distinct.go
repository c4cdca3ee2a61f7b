package agg

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Distinct counts the distinct measure values of a group. It is a holistic
// function in the Gray et al. classification (§7 of the paper): no
// bounded-size partial state exists, so its states carry the full value set
// and their size grows with the group's distinct count. The states are
// nevertheless exactly mergeable (set union), which makes Distinct a useful
// worked example of the paper's discussion: SP-Cube computes it correctly,
// but the mapper-side partial states of skewed c-groups are no longer
// constant-size — the efficiency guarantees of §5.2 degrade exactly as the
// paper predicts for holistic measures.
var Distinct Func = distinctFunc{}

type distinctFunc struct{}

func (distinctFunc) Name() string    { return "distinct" }
func (distinctFunc) NewState() State { return &distinctState{seen: make(map[int64]struct{})} }

func (distinctFunc) DecodeState(b []byte) (State, error) {
	n, c := binary.Uvarint(b)
	if c <= 0 {
		return nil, fmt.Errorf("agg: truncated distinct state")
	}
	b = b[c:]
	st := &distinctState{seen: make(map[int64]struct{}, n)}
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		delta, c := binary.Uvarint(b)
		if c <= 0 {
			return nil, fmt.Errorf("agg: truncated distinct state at value %d of %d", i, n)
		}
		b = b[c:]
		prev += int64(delta)
		st.seen[prev] = struct{}{}
	}
	return st, nil
}

type distinctState struct {
	seen map[int64]struct{}
}

func (s *distinctState) Add(m int64) { s.seen[m] = struct{}{} }

func (s *distinctState) Merge(o State) {
	for v := range o.(*distinctState).seen {
		s.seen[v] = struct{}{}
	}
}

func (s *distinctState) Final() float64 { return float64(len(s.seen)) }

// AppendEncode writes the sorted value set delta-encoded. Sorting makes the
// encoding canonical (deterministic runs) and the deltas keep it compact.
func (s *distinctState) AppendEncode(buf []byte) []byte {
	vals := make([]int64, 0, len(s.seen))
	for v := range s.seen {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	return buf
}
