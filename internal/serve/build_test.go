package serve

import (
	"slices"
	"sort"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// mapBuild is Build as it was while the served cube was a map — decode every
// key, regroup per mask, sort each cuboid's entries — kept as the reference
// BuildRun's stores are compared with.
func mapBuild(rel *relation.Relation, res *cube.Result) (*Store, error) {
	st := &Store{
		d:      res.D,
		schema: rel.Schema,
		dict:   rel.Dict,
		byMask: make(map[lattice.Mask]*cuboid),
		groups: len(res.Groups),
	}
	type entry struct {
		packed []relation.Value
		val    float64
	}
	perMask := make(map[lattice.Mask][]entry)
	for key, val := range res.Groups {
		mask, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			return nil, err
		}
		perMask[lattice.Mask(mask)] = append(perMask[lattice.Mask(mask)], entry{packed, val})
	}
	for mask, entries := range perMask {
		sort.Slice(entries, func(i, j int) bool {
			return relation.ComparePacked(entries[i].packed, entries[j].packed) < 0
		})
		c := newCuboid(mask, len(entries))
		for _, e := range entries {
			c.push(e.packed, e.val)
		}
		st.byMask[mask] = c
	}
	return st, nil
}

// requireSameStore: the same cuboids holding the same packed rows and values.
func requireSameStore(t *testing.T, got, want *Store) {
	t.Helper()
	if got.d != want.d || got.groups != want.groups || len(got.byMask) != len(want.byMask) {
		t.Fatalf("store of %d dims, %d groups, %d cuboids; want %d, %d, %d",
			got.d, got.groups, len(got.byMask), want.d, want.groups, len(want.byMask))
	}
	for mask, w := range want.byMask {
		g := got.byMask[mask]
		if g == nil || g.mask != w.mask || g.stride != w.stride || !slices.Equal(g.packed, w.packed) || !slices.Equal(g.vals, w.vals) {
			t.Fatalf("cuboid %b differs from the reference", mask)
		}
	}
}

// codesRelation is n rows over three dimensions whose values are spread over
// [lo, lo+span): span ≤ 64 at lo 0 keeps every key byte a whole value, lo ≥
// 16384 makes every value a three-byte varint.
func codesRelation(n int, lo, span relation.Value) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b", "c"}, MeasureName: "m"}}
	for i := 0; i < n; i++ {
		v := relation.Value(i)
		rel.Append([]relation.Value{lo + v*7%span, lo + v*13%span, lo + v*29%span}, int64(i%5))
	}
	return rel
}

// TestBuildFromRunEqualsMapBuild: a store laid down from a job's sorted run
// is, cuboid for cuboid, the store the map-fed builder made of the same cube,
// and serves every group through Point and PointBatch as brute force
// computes it — whatever the algorithm, and whatever the values' key widths,
// which the run's order does not depend on.
func TestBuildFromRunEqualsMapBuild(t *testing.T) {
	rels := []struct {
		name string
		rel  *relation.Relation
	}{
		{"uniform", data.Uniform(300, 4, 1<<30, 1)},
		{"wiki", data.WikiTraffic(300, 1)},
		{"binomial", data.GenBinomial(300, 4, 0.5, 1)},
		{"retail", data.Retail(300, 1)},
		{"codes below 64", codesRelation(300, 0, 64)},
		{"three-byte varints", codesRelation(300, 16384, 500)},
	}
	for _, a := range algo.Table {
		for _, rc := range rels {
			for _, minSup := range []int{0, 3} {
				spec := cube.Spec{Agg: agg.Sum, MinSup: minSup}
				eng := cubetest.NewEngine(5)
				job, err := a.New(1)(eng, rc.rel, spec)
				if err != nil {
					t.Fatalf("%s/%s/minsup=%d: %v", a.Name, rc.name, minSup, err)
				}
				run, err := cube.CollectRun(eng, job.OutputPrefix, rc.rel.D(), spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cube.CollectDFS(eng, job.OutputPrefix, rc.rel.D(), spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mapBuild(rc.rel, res)
				if err != nil {
					t.Fatal(err)
				}
				brute := cube.BruteSpec(rc.rel, spec)
				for name, build := range map[string]func() (*Store, error){
					"run":         func() (*Store, error) { return BuildRun(rc.rel, run.Each) },
					"map wrapper": func() (*Store, error) { return Build(rc.rel, res) },
				} {
					got, err := build()
					if err != nil {
						t.Fatalf("%s/%s/minsup=%d through the %s: %v", a.Name, rc.name, minSup, name, err)
					}
					requireSameStore(t, got, want)
					checkStoreMatches(t, got, brute)
				}
			}
		}
	}
}

// TestBuildRunRejectsUnorderedGroups: groups that do not arrive in run order —
// a cuboid's rows descending, or a cuboid in two stretches — are an error,
// not a store whose binary searches miss.
func TestBuildRunRejectsUnorderedGroups(t *testing.T) {
	type group struct {
		mask   lattice.Mask
		packed []relation.Value
	}
	for name, groups := range map[string][]group{
		"descending rows":    {{0b001, []relation.Value{2}}, {0b001, []relation.Value{1}}},
		"a row twice":        {{0b001, []relation.Value{1}}, {0b001, []relation.Value{1}}},
		"a cuboid met again": {{0b001, []relation.Value{1}}, {0b010, []relation.Value{1}}, {0b001, []relation.Value{2}}},
	} {
		each := func(fn func(key []byte, mask lattice.Mask, packed []relation.Value, value float64, count int64) bool) {
			for _, g := range groups {
				if !fn(nil, g.mask, g.packed, 1, 1) {
					return
				}
			}
		}
		if st, err := BuildRun(codesRelation(4, 0, 4), each); err == nil {
			t.Errorf("%s: BuildRun accepted the groups into a store of %d", name, st.Groups())
		}
	}
}

// TestBuildRunRejectsForeignCuboid: a group of a cuboid the relation has no
// dimensions for is an error, not a store that panics on the first query.
func TestBuildRunRejectsForeignCuboid(t *testing.T) {
	rel := codesRelation(4, 0, 4)
	res := cube.NewResult(4)
	res.Add(0b1000, []relation.Value{1}, 1)
	if _, err := Build(rel, res); err == nil {
		t.Fatal("Build accepted a group of cuboid 1000 into a three-dimensional store")
	}
}
