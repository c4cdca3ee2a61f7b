package lattice

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestBFSOrderProperties(t *testing.T) {
	for d := 0; d <= 8; d++ {
		order := BFSOrder(d)
		if len(order) != 1<<uint(d) {
			t.Fatalf("d=%d: %d masks", d, len(order))
		}
		if d > 0 && order[0] != 0 {
			t.Errorf("d=%d: BFS must start at the apex (empty mask)", d)
		}
		pos := make(map[Mask]int, len(order))
		for i, m := range order {
			pos[m] = i
		}
		// Every strict subset must precede its superset.
		for _, m := range order {
			for s := Mask(0); s < m; s++ {
				if s&^m == 0 && pos[s] >= pos[m] {
					t.Errorf("d=%d: subset %b does not precede %b", d, s, m)
				}
			}
		}
		// Levels are non-decreasing.
		for i := 1; i < len(order); i++ {
			if order[i].Level() < order[i-1].Level() {
				t.Errorf("d=%d: level decreases at %d", d, i)
			}
		}
	}
}

func TestBFSOrderMatchesPaperExample(t *testing.T) {
	// Figure 2's traversal for (laptop, Rome, 2012): apex first, then the
	// single-attribute nodes in attribute order.
	order := BFSOrder(3)
	want := []Mask{0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %03b, want %03b", i, order[i], want[i])
		}
	}
}

func TestSupersetsComplete(t *testing.T) {
	f := func(maskSeed, dSeed uint8) bool {
		d := int(dSeed%7) + 1
		m := Mask(maskSeed) & Full(d)
		got := make(map[Mask]bool)
		Supersets(m, d, func(s Mask) {
			if m&^s != 0 || s == m {
				t.Errorf("Supersets(%b) yielded non-strict-superset %b", m, s)
			}
			if got[s] {
				t.Errorf("Supersets(%b) yielded %b twice", m, s)
			}
			got[s] = true
		})
		want := 1<<uint(d-m.Level()) - 1
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSubsetsBFSSortedAndComplete(t *testing.T) {
	for _, m := range []Mask{0, 0b1, 0b1011, 0b11111} {
		subs := SubsetsBFS(m)
		if len(subs) != 1<<uint(m.Level()) {
			t.Fatalf("SubsetsBFS(%b): %d entries", m, len(subs))
		}
		if subs[0] != 0 || subs[len(subs)-1] != m {
			t.Errorf("SubsetsBFS(%b) must start at 0 and end at %b", m, m)
		}
		for i := 1; i < len(subs); i++ {
			if !BFSLess(subs[i-1], subs[i]) {
				t.Errorf("SubsetsBFS(%b) not in BFS order at %d", m, i)
			}
		}
	}
}

func TestMarks(t *testing.T) {
	for _, d := range []int{1, 3, 6, 7} {
		mk := NewMarks(d)
		if mk.Marked(0) {
			t.Fatal("fresh marks must be clear")
		}
		mk.Mark(Full(d))
		if !mk.Marked(Full(d)) {
			t.Fatal("Mark failed")
		}
		mk.Reset()
		mk.MarkSupersetsIncl(0)
		for m := Mask(0); m <= Full(d); m++ {
			if !mk.Marked(m) {
				t.Errorf("d=%d: MarkSupersetsIncl(0) missed %b", d, m)
			}
		}
		mk.Reset()
		base := Mask(1)
		mk.MarkSupersetsIncl(base)
		marked := 0
		for m := Mask(0); m <= Full(d); m++ {
			if mk.Marked(m) {
				marked++
				if base&^m != 0 {
					t.Errorf("d=%d: marked non-superset %b", d, m)
				}
			}
		}
		if marked != 1<<uint(d-1) {
			t.Errorf("d=%d: marked %d nodes, want %d", d, marked, 1<<uint(d-1))
		}
	}
}

// TestMarkSupersetsInclEqualsEnumeration pins both marking strategies (one
// precomputed word for d ≤ 6, in-place enumeration above) to the callback
// enumerator, for every mask.
func TestMarkSupersetsInclEqualsEnumeration(t *testing.T) {
	for d := 1; d <= 8; d++ {
		mk := NewMarks(d)
		for m := Mask(0); m <= Full(d); m++ {
			want := make(map[Mask]bool)
			SupersetsIncl(m, d, func(s Mask) { want[s] = true })
			mk.Reset()
			mk.MarkSupersetsIncl(m)
			for s := Mask(0); s <= Full(d); s++ {
				if mk.Marked(s) != want[s] {
					t.Fatalf("d=%d m=%b: node %b marked=%v, SupersetsIncl says %v", d, m, s, mk.Marked(s), want[s])
				}
			}
		}
	}
}

func TestBFSLessTotalOrder(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := Mask(a), Mask(b)
		if x == y {
			return !BFSLess(x, y) && !BFSLess(y, x)
		}
		return BFSLess(x, y) != BFSLess(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLevelMatchesPopcount(t *testing.T) {
	f := func(a uint32) bool {
		return Mask(a).Level() == bits.OnesCount32(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
