package delta

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// sketchRelations are the six internal/data generators, each as wide as it
// goes up to six dimensions, at test size.
var sketchRelations = []struct {
	name string
	rel  func() *relation.Relation
}{
	{"binomial", func() *relation.Relation { return data.GenBinomial(360, 6, 0.5, 3) }},
	{"zipf", func() *relation.Relation { return data.GenZipf(360, 3) }},
	{"uniform", func() *relation.Relation { return data.Uniform(360, 6, 5, 3) }},
	{"wiki", func() *relation.Relation { return data.WikiTraffic(360, 3) }},
	{"usagov", func() *relation.Relation { return data.USAGov(360, 3).Restrict([]int{0, 1, 2, 3, 4, 5}) }},
	{"retail", func() *relation.Relation { return data.Retail(360, 3) }},
}

// requireExactSketch holds the maintainer's base sketch to BuildExact's over
// its relation.
func requireExactSketch(t *testing.T, m *Maintainer, when string) {
	t.Helper()
	want := sketch.BuildExact(m.rel, m.cfg.Workers, mr.MachineMemory(m.rel.N(), m.cfg.Workers))
	if !reflect.DeepEqual(m.baseSketch, want) {
		t.Fatalf("%s: the sketch read off the counts is not BuildExact's", when)
	}
}

// TestBaseSketchIsBuildExact: the base sketch a build reads off its cube's
// counts is BuildExact's, field for field, on every generator cut to every
// width from one to six dimensions, under count, whose values are the counts,
// and under aggregates whose records carry the counts in the states behind
// the values — after the initial build, and after a rebuild that follows
// delta rounds.
func TestBaseSketchIsBuildExact(t *testing.T) {
	for _, sr := range sketchRelations {
		all := sr.rel()
		for d := 1; d <= all.D(); d++ {
			cols := make([]int, d)
			for i := range cols {
				cols[i] = i
			}
			rel := all.Restrict(cols)
			for _, fn := range []agg.Func{agg.Count, agg.Sum, agg.Min} {
				for _, workers := range []int{1, 5} {
					name := fmt.Sprintf("%s/d=%d/%s/k=%d", sr.name, d, fn.Name(), workers)
					base := &relation.Relation{Schema: rel.Schema, Dict: rel.Dict, Tuples: rel.Tuples[:300]}
					m, err := New(base, Config{Agg: fn, Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireExactSketch(t, m, name+": initial build")
					pool := rel.Tuples[300:]
					for cycle := 0; cycle < 3; cycle++ {
						if cycle == 2 {
							m.cfg.RebuildThreshold = -1
						}
						batch := Batch{Append: pool[:20]}
						pool = pool[20:]
						if fn != agg.Min {
							batch.Delete = []relation.Tuple{m.rel.Tuples[cycle].Clone()}
						}
						rnd, err := m.Apply(batch)
						if err != nil {
							t.Fatalf("%s cycle %d: %v", name, cycle, err)
						}
						if rnd.Mode == "rebuild" {
							requireExactSketch(t, m, fmt.Sprintf("%s: rebuild in cycle %d", name, cycle))
						}
					}
				}
			}
		}
	}
}

// TestBaseSketchOfNoTuples: the cube of no tuples reads as BuildExact's
// sketch of no tuples — no skews, no partition elements — which is what a
// batch that deletes every row would leave to derive it from.
func TestBaseSketchOfNoTuples(t *testing.T) {
	m, err := New(data.Retail(40, 1), Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	empty := &relation.Relation{Schema: m.rel.Schema, Dict: m.rel.Dict}
	run, err := m.runJob(empty, new(mr.JobMetrics), new(Timing))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exactSketch(run, empty.D(), 0, 3, mr.MachineMemory(0, 3)), sketch.BuildExact(empty, 3, mr.MachineMemory(0, 3)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sketch of no tuples: %+v, BuildExact's %+v", got, want)
	}
}
