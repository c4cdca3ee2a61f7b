package delta

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
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
// of every cycle's Mode and Changes (key, value bits, delete flag, in order),
// recorded from the commit whose maintainer kept the cube in a
// map[string]group and sorted the touched keys: whatever holds the state must
// publish the same edits in the same order.
var changesGolden = map[string]uint64{
	"binomial/count/minsup=0": 0xb4e5076a9de1a2a4,
	"binomial/count/minsup=3": 0xca721bc785f25078,
	"binomial/sum/minsup=0":   0xb4e5076a9de1a2a4,
	"binomial/sum/minsup=3":   0xca721bc785f25078,
	"binomial/min/minsup=0":   0xea07116b0a745a21,
	"binomial/min/minsup=3":   0x1b967e75e6c97a2d,
	"zipf/count/minsup=0":     0x838ef08d8f3fb2dd,
	"zipf/count/minsup=3":     0x3aa0001420522751,
	"zipf/sum/minsup=0":       0x838ef08d8f3fb2dd,
	"zipf/sum/minsup=3":       0x3aa0001420522751,
	"zipf/min/minsup=0":       0xbf239a67cfb775d,
	"zipf/min/minsup=3":       0x4f81738a5d37f941,
	"uniform/count/minsup=0":  0x6487b7f6f827e769,
	"uniform/count/minsup=3":  0x72732e2239df5ab4,
	"uniform/sum/minsup=0":    0x6487b7f6f827e769,
	"uniform/sum/minsup=3":    0x72732e2239df5ab4,
	"uniform/min/minsup=0":    0xeb39e2a41bea7bb7,
	"uniform/min/minsup=3":    0x2890e955d215db97,
	"wiki/count/minsup=0":     0xe4d39c839c30ac7a,
	"wiki/count/minsup=3":     0x606ec02284273267,
	"wiki/sum/minsup=0":       0xed6f5d58e36ab7a6,
	"wiki/sum/minsup=3":       0x767e24a9cfab890a,
	"wiki/min/minsup=0":       0xb64ecea1228be535,
	"wiki/min/minsup=3":       0x17a23a1b7e0b0fad,
	"usagov/count/minsup=0":   0x63ed39641f0d685d,
	"usagov/count/minsup=3":   0x2e955c4f4dbd36a8,
	"usagov/sum/minsup=0":     0x63ed39641f0d685d,
	"usagov/sum/minsup=3":     0x2e955c4f4dbd36a8,
	"usagov/min/minsup=0":     0x39873f2e99550fa8,
	"usagov/min/minsup=3":     0x714f052c7084ec88,
	"retail/count/minsup=0":   0xc623c02316938d69,
	"retail/count/minsup=3":   0x736cce5b15c66114,
	"retail/sum/minsup=0":     0x6da078fb49e91d8c,
	"retail/sum/minsup=3":     0xe20782e530cbc1f5,
	"retail/min/minsup=0":     0xba12f94a6ac3fce7,
	"retail/min/minsup=3":     0x1421e909204f27b7,
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

						fmt.Fprintf(h, "%s %d\n", rnd.Mode, len(rnd.Changes))
						for _, ch := range rnd.Changes {
							fmt.Fprintf(h, "%x %x %v\n", ch.Key, math.Float64bits(ch.Value), ch.Delete)
						}
					}
					if got := h.Sum64(); got != changesGolden[name] {
						t.Errorf("Changes hash %#x, want %#x", got, changesGolden[name])
					}
				})
			}
		}
	}
}

// TestOverlayCases walks the overlay's edge states by name, under count (one
// run) and sum (a value run and a count run read in lockstep). After every
// step the published cube is brute force's over the maintained relation.
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
	// apply runs one cycle, checks the published cube and returns the state
	// and the published change of the (name, r) group.
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
		g, ok := m.overlay[key]
		if !ok {
			t.Fatalf("group %s is not in the overlay after a cycle that touched it", name)
		}
		for _, ch := range rnd.Changes {
			if ch.Key == key {
				return g, ch
			}
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
				// but stays maintained: it is no tombstone.
				want = group{val: val(1, 9), cnt: 1}
				if g, ch := apply(t, m, "y", nil, row("y", 3)); g != want || !ch.Delete {
					t.Fatalf("one tuple deleted: state %+v, change %+v; want %+v unpublished", g, ch, want)
				}
			})
			t.Run("a rebuild after the overlay has grown", func(t *testing.T) {
				m := newMaintainer(t, fn, 0)
				apply(t, m, "z", row("z", 5), nil)
				apply(t, m, "y", nil, row("y", 3))
				old := m.base
				if len(m.overlay) == 0 {
					t.Fatal("two delta cycles left the overlay empty")
				}
				m.cfg.RebuildThreshold = -1
				rnd, err := m.ApplyStrings(row("w", 4), nil)
				if err != nil || rnd.Mode != "rebuild" {
					t.Fatalf("forced rebuild: %+v, %v", rnd, err)
				}
				if len(m.overlay) != 0 || m.base.vals == old.vals {
					t.Fatalf("after a rebuild: %d overlay entries, base replaced: %v", len(m.overlay), m.base.vals != old.vals)
				}
				exactEqual(t, cube.Brute(m.rel, fn), m.Result())
			})
		})
	}
}
