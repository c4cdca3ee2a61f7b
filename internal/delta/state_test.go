package delta

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// stateRelations are the six internal/data generators at test size. USAGov
// is cut to its first four columns: 2^15 cuboids per brute-force check buys
// nothing the other five do not.
var stateRelations = []struct {
	name string
	rel  func() *relation.Relation
}{
	{"binomial", func() *relation.Relation { return data.GenBinomial(420, 4, 0.5, 5) }},
	{"zipf", func() *relation.Relation { return data.GenZipf(420, 5) }},
	{"uniform", func() *relation.Relation { return data.Uniform(420, 3, 6, 5) }},
	{"wiki", func() *relation.Relation { return data.WikiTraffic(420, 5) }},
	{"usagov", func() *relation.Relation {
		rel := data.USAGov(420, 5)
		rel.Schema.DimNames = rel.Schema.DimNames[:4]
		for i := range rel.Tuples {
			rel.Tuples[i].Dims = rel.Tuples[i].Dims[:4]
		}
		return rel
	}},
	{"retail", func() *relation.Relation { return data.Retail(420, 5) }},
}

// changesGolden holds, per case of TestMaintainedStateMatchesBrute, a hash
// of every cycle's Mode and Changes (see hashChanges). The maintainer that
// kept the cube in a map[string]group published the same edits in the same
// order; the hashes were recorded from the last commit whose group keys were
// uvarints, and decode the keys so that a key encoding is not part of them.
var changesGolden = map[string]uint64{
	"binomial/count/minsup=0": 0xc203c312dd6bd646,
	"binomial/count/minsup=3": 0x8639f4022e2f7f1a,
	"binomial/sum/minsup=0":   0xc203c312dd6bd646,
	"binomial/sum/minsup=3":   0x8639f4022e2f7f1a,
	"binomial/min/minsup=0":   0x82114c476c6f9c9b,
	"binomial/min/minsup=3":   0x85789adce0027f0b,
	"zipf/count/minsup=0":     0x1c11496ec4646235,
	"zipf/count/minsup=3":     0x8a36a2b3d4faa94d,
	"zipf/sum/minsup=0":       0x1c11496ec4646235,
	"zipf/sum/minsup=3":       0x8a36a2b3d4faa94d,
	"zipf/min/minsup=0":       0xa40f67bfb0512735,
	"zipf/min/minsup=3":       0x22b8770d4c37e765,
	"uniform/count/minsup=0":  0xaf8a7dbfa9616586,
	"uniform/count/minsup=3":  0x8372bdeb17c2a1e9,
	"uniform/sum/minsup=0":    0xaf8a7dbfa9616586,
	"uniform/sum/minsup=3":    0x8372bdeb17c2a1e9,
	"uniform/min/minsup=0":    0xc5a468bc2231913c,
	"uniform/min/minsup=3":    0x78698ab03bf0e718,
	"wiki/count/minsup=0":     0x20eb47873b140bf5,
	"wiki/count/minsup=3":     0x2c036bc9a4693b16,
	"wiki/sum/minsup=0":       0x8a54c0d2c5ba2589,
	"wiki/sum/minsup=3":       0xcfa3021e0e597d6f,
	"wiki/min/minsup=0":       0x96eea1806b9e4337,
	"wiki/min/minsup=3":       0x5cf5c4ae505565f9,
	"usagov/count/minsup=0":   0x71d6b39b52af1e01,
	"usagov/count/minsup=3":   0xf15985a7ad7a9544,
	"usagov/sum/minsup=0":     0x71d6b39b52af1e01,
	"usagov/sum/minsup=3":     0xf15985a7ad7a9544,
	"usagov/min/minsup=0":     0x62a5b5d0939fca46,
	"usagov/min/minsup=3":     0xe3d720d2546bca46,
	"retail/count/minsup=0":   0xe72519931af0eb3b,
	"retail/count/minsup=3":   0x27a8f9032ca8d69c,
	"retail/sum/minsup=0":     0x751a5cf6e16d079c,
	"retail/sum/minsup=3":     0x64a8470a1b62c671,
	"retail/min/minsup=0":     0xf49ac0b435f7ccdd,
	"retail/min/minsup=3":     0xebe3710b7a03753,
}

// TestMaintainedStateMatchesBrute drives seeded append / delete / mixed
// cycles (appends only under min, whose finals do not invert) over a prefix
// of each generated relation, the rows behind the prefix feeding the appends
// as they do in the benchmark harness. After every cycle the published cube
// is brute force's over the current relation, bit for bit, and the cycle's
// Changes are the ones the map-backed maintainer published.
func TestMaintainedStateMatchesBrute(t *testing.T) {
	for _, sr := range stateRelations {
		for _, fn := range []agg.Func{agg.Count, agg.Sum, agg.Min} {
			for _, minSup := range []int{0, 3} {
				name := fmt.Sprintf("%s/%s/minsup=%d", sr.name, fn.Name(), minSup)
				t.Run(name, func(t *testing.T) {
					all := sr.rel()
					cur := &relation.Relation{Schema: all.Schema, Dict: all.Dict, Tuples: cloneTuples(all.Tuples[:260])}
					pool := all.Tuples[260:]
					m, err := New(cur, Config{Agg: fn, MinSup: minSup, Workers: 4})
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(41))
					h := fnv.New64a()
					for cycle := 0; cycle < 6; cycle++ {
						var batch Batch
						if kind := cycle % 3; kind != 1 || fn == agg.Min { // append, or the mixed cycle's half
							n := 12 + rng.Intn(12)
							batch.Append, pool = pool[:n], pool[n:]
						}
						if kind := cycle % 3; kind != 0 && fn != agg.Min { // delete, or the mixed cycle's half
							for _, i := range rng.Perm(cur.N())[:10+rng.Intn(10)] {
								batch.Delete = append(batch.Delete, cur.Tuples[i].Clone())
							}
						}
						rnd, err := m.Apply(batch)
						if err != nil {
							t.Fatalf("cycle %d: %v", cycle, err)
						}
						cur = combined(cur, batch)
						exactEqual(t, cube.BruteSpec(cur, cube.Spec{Agg: fn, MinSup: minSup}), m.Result())

						hashChanges(t, h, rnd)
					}
					if got := h.Sum64(); got != changesGolden[name] {
						t.Errorf("Changes hash %#x, want %#x", got, changesGolden[name])
					}
				})
			}
		}
	}
}

// hashChanges writes a cycle's Mode and Changes to h: every change's mask,
// packed values, value bits and delete flag, in (mask, ComparePacked) order.
// It requires the Changes to be in ascending key order, which is what a Patch
// is built in.
func hashChanges(t *testing.T, h io.Writer, rnd *Round) {
	t.Helper()
	type edit struct {
		mask   uint32
		packed []relation.Value
		ch     Change
	}
	edits := make([]edit, len(rnd.Changes))
	for i, ch := range rnd.Changes {
		if i > 0 && rnd.Changes[i-1].Key >= ch.Key {
			t.Fatalf("change %d is not above change %d in key order", i, i-1)
		}
		mask, packed, err := relation.DecodeGroupKey(ch.Key)
		if err != nil {
			t.Fatal(err)
		}
		edits[i] = edit{mask, packed, ch}
	}
	slices.SortFunc(edits, func(a, b edit) int {
		if c := cmp.Compare(a.mask, b.mask); c != 0 {
			return c
		}
		return relation.ComparePacked(a.packed, b.packed)
	})
	fmt.Fprintf(h, "%s %d\n", rnd.Mode, len(edits))
	for _, e := range edits {
		fmt.Fprintf(h, "%b %v %x %v\n", e.mask, e.packed, math.Float64bits(e.ch.Value), e.ch.Delete)
	}
}

// group is a maintained state as it publishes: its final and its count.
type group struct {
	val float64
	cnt int64
}

// TestOverlayCases walks the overlay's edge states by name, under count (the
// base's values are its counts) and sum (the base's records carry the states
// behind the values). After every step the published cube is brute force's
// over the maintained relation.
func TestOverlayCases(t *testing.T) {
	row := func(name string, measure int64) []Row { return []Row{{Dims: []string{name, "r"}, Measure: measure}} }
	newMaintainer := func(t *testing.T, fn agg.Func, minSup int) *Maintainer {
		rel := relation.New([]string{"name", "region"}, "m")
		rel.AppendStrings([]string{"x", "r"}, 1)
		rel.AppendStrings([]string{"x", "r"}, 2)
		rel.AppendStrings([]string{"y", "r"}, 3)
		m, err := New(rel, Config{Agg: fn, MinSup: minSup, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// apply runs one cycle, checks the published cube and the overlay rule,
	// and returns the overlay's state of the (name, r) group — zero when the
	// overlay drops it — and its published change.
	apply := func(t *testing.T, m *Maintainer, name string, appends, deletes []Row) (group, Change) {
		t.Helper()
		rnd, err := m.ApplyStrings(appends, deletes)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Mode != "delta" {
			t.Fatalf("cycle ran as %s/%s, want a delta", rnd.Mode, rnd.Reason)
		}
		exactEqual(t, cube.BruteSpec(m.rel, cube.Spec{Agg: m.cfg.Agg, MinSup: m.cfg.MinSup}), m.Result())
		code, _ := m.rel.Dict.Code(0, name)
		r, _ := m.rel.Dict.Code(1, "r")
		key := relation.GroupKey(0b11, []relation.Value{code, r})
		st, held := m.overlay[key]
		_, inBase := m.base.Cursor().Seek([]byte(key))
		for _, ch := range rnd.Changes {
			if ch.Key != key {
				continue
			}
			if held != (!ch.Delete || inBase) {
				t.Fatalf("group %s: in the overlay %v, published %v, in the base %v", name, held, !ch.Delete, inBase)
			}
			if !held {
				return group{}, ch
			}
			return group{st.Final(), count(st)}, ch
		}
		t.Fatalf("no change published for group %s", name)
		return group{}, Change{}
	}
	for _, fn := range []agg.Func{agg.Count, agg.Sum} {
		val := func(count, sum float64) float64 {
			if fn == agg.Count {
				return count
			}
			return sum
		}
		t.Run(fn.Name(), func(t *testing.T) {
			t.Run("a base group deleted to zero, then re-appended", func(t *testing.T) {
				m := newMaintainer(t, fn, 0)
				if g, ch := apply(t, m, "y", nil, row("y", 3)); g != (group{}) || !ch.Delete {
					t.Fatalf("after its only tuple is deleted: state %+v, change %+v; want a tombstone and a delete", g, ch)
				}
				// The base still holds y = 3: the tombstone must hide it, and
				// the resurrected group must not inherit from it.
				want := group{val: val(1, 7), cnt: 1}
				if g, ch := apply(t, m, "y", row("y", 7), nil); g != want || ch.Delete || ch.Value != want.val {
					t.Fatalf("re-appended: state %+v, change %+v; want %+v set", g, ch, want)
				}
			})
			t.Run("a group created in the overlay, then deleted", func(t *testing.T) {
				m := newMaintainer(t, fn, 0)
				want := group{val: val(1, 5), cnt: 1}
				if g, ch := apply(t, m, "z", row("z", 5), nil); g != want || ch.Delete {
					t.Fatalf("created: state %+v, change %+v; want %+v set", g, ch, want)
				}
				if g, ch := apply(t, m, "z", nil, row("z", 5)); g != (group{}) || !ch.Delete {
					t.Fatalf("deleted: state %+v, change %+v; want a tombstone and a delete", g, ch)
				}
			})
			t.Run("a group crossing MinSup upward and back", func(t *testing.T) {
				m := newMaintainer(t, fn, 2)
				want := group{val: val(2, 12), cnt: 2}
				if g, ch := apply(t, m, "y", row("y", 9), nil); g != want || ch.Delete || ch.Value != want.val {
					t.Fatalf("second tuple: state %+v, change %+v; want %+v published", g, ch, want)
				}
				// Back under the threshold the group leaves the published cube
				// and, since the base lacks it, the overlay too.
				if g, ch := apply(t, m, "y", nil, row("y", 3)); g != (group{}) || !ch.Delete {
					t.Fatalf("one tuple deleted: state %+v, change %+v; want it dropped and unpublished", g, ch)
				}
				// Touched again, it is recomputed from the relation's tuples.
				want = group{val: val(2, 13), cnt: 2}
				if g, ch := apply(t, m, "y", row("y", 4), nil); g != want || ch.Delete || ch.Value != want.val {
					t.Fatalf("re-appended: state %+v, change %+v; want %+v published", g, ch, want)
				}
			})
			t.Run("a rebuild after the overlay has grown", func(t *testing.T) {
				// Neither count nor sum ever recomputes, so each runs this
				// case under an aggregate whose deletes do: distinct for
				// count, min for sum. The delete's recomputed groups join
				// the grown overlay over the same base (the case is named
				// for the rebuild it once took).
				m := newMaintainer(t, map[agg.Func]agg.Func{agg.Count: agg.Distinct, agg.Sum: agg.Min}[fn], 0)
				apply(t, m, "z", row("z", 5), nil)
				apply(t, m, "y", row("y", 9), nil)
				old, grown := m.base, len(m.overlay)
				if grown == 0 {
					t.Fatal("two delta cycles left the overlay empty")
				}
				rnd, err := m.ApplyStrings(nil, row("x", 1))
				if err != nil || rnd.Mode != "delta" || rnd.Reason != "recompute" || len(rnd.Changes) == 0 {
					t.Fatalf("a delete under %s: %+v, %v", m.cfg.Agg.Name(), rnd, err)
				}
				if len(m.overlay) <= grown || m.base != old {
					t.Fatalf("after a recompute: %d overlay entries (were %d), base replaced: %v", len(m.overlay), grown, m.base != old)
				}
				exactEqual(t, cube.Brute(m.rel, m.cfg.Agg), m.Result())
			})
		})
	}
}

// TestOverlayBounded runs the binomial ingest sequence of
// BenchmarkDeltaApply (MinSup 10, 38 k served rows, 60 cycles of 200
// appended ones), whose batches touch tens of thousands of groups a cycle
// that stay below MinSup: the overlay holds none of them, only published
// groups and the base's keys.
func TestOverlayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("60 maintenance cycles")
	}
	all := data.GenBinomial(50000, 6, 0.5, 1)
	served := &relation.Relation{Schema: all.Schema, Dict: all.Dict, Tuples: all.Tuples[:38000]}
	m, err := New(served, Config{Algorithm: "sp-cube", Agg: agg.Count, MinSup: 10, Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for pool := all.Tuples[38000:]; len(pool) >= 200; pool = pool[200:] {
		if _, err := m.Apply(Batch{Append: pool[:200]}); err != nil {
			t.Fatal(err)
		}
	}
	published := 0
	m.Published(func([]byte, lattice.Mask, []relation.Value, float64, int64) bool {
		published++
		return true
	})
	if bound := published + m.base.Len(); len(m.overlay) > bound {
		t.Fatalf("after 60 cycles the overlay holds %d states, more than the %d published groups and %d base keys", len(m.overlay), published, m.base.Len())
	}
}
