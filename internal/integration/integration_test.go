// Package integration cross-validates every cube algorithm against the
// brute-force reference and against each other over a matrix of data
// distributions, aggregate functions, iceberg thresholds and cluster
// shapes — the end-to-end safety net on top of the per-package suites.
package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/algo/hivecube"
	spalgo "github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// hiveNoOOM disables the Hive model's hard failure so correctness can be
// checked even on configurations that would OOM its reducers.
func hiveNoOOM(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	return hivecube.ComputeOpts(eng, rel, spec, hivecube.Options{DisableOOM: true})
}

type namedAlgorithm struct {
	name string
	fn   cube.ComputeFunc
}

// allAlgorithms is the shared algorithm table at the default seed, with
// Hive's OOM failure disabled.
var allAlgorithms = func() []namedAlgorithm {
	var out []namedAlgorithm
	for _, a := range algo.Table {
		fn := a.New(0)
		if a.Name == "hive" {
			fn = hiveNoOOM
		}
		out = append(out, namedAlgorithm{a.Name, fn})
	}
	return out
}()

var workloads = []struct {
	name string
	rel  *relation.Relation
}{
	{"uniform-dense", cubetest.RandomRelation(rand.New(rand.NewSource(1)), 400, 3, 4)},
	{"uniform-sparse", cubetest.RandomRelation(rand.New(rand.NewSource(2)), 400, 3, 100000)},
	{"binomial-0.5", data.GenBinomial(400, 3, 0.5, 3)},
	{"zipf", data.GenZipf(400, 4)},
	{"wiki", data.WikiTraffic(400, 5)},
	{"usagov-4d", data.USAGov(400, 6).Restrict(data.USAGovCubeDims)},
	{"retail", data.Retail(400, 7)},
	{"adversarial", data.Adversarial(4, 25)},
}

// TestAllAlgorithmsMatchBruteForce is the full correctness matrix.
func TestAllAlgorithmsMatchBruteForce(t *testing.T) {
	for _, w := range workloads {
		for _, a := range allAlgorithms {
			t.Run(w.name+"/"+a.name, func(t *testing.T) {
				if err := cubetest.CheckAgainstBrute(a.fn, w.rel, agg.Count, 5); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestAggregateMatrix runs every aggregate function (and an iceberg
// threshold) through every algorithm on one skewed workload.
func TestAggregateMatrix(t *testing.T) {
	rel := data.GenBinomial(500, 3, 0.4, 11)
	specs := []cube.Spec{
		{Agg: agg.Count},
		{Agg: agg.Sum},
		{Agg: agg.Min},
		{Agg: agg.Max},
		{Agg: agg.Avg},
		{Agg: agg.Var},
		{Agg: agg.Stddev},
		{Agg: agg.Distinct},
		{Agg: agg.Sum, MinSup: 10},
		{Agg: agg.Count, MinSup: 50},
	}
	for _, spec := range specs {
		want := cube.BruteSpec(rel, spec)
		for _, a := range allAlgorithms {
			name := fmt.Sprintf("%s/%s-minsup%d", a.name, spec.Agg.Name(), spec.MinSup)
			t.Run(name, func(t *testing.T) {
				eng := cubetest.NewEngine(4)
				res, _, err := cubetest.RunAndCollect(eng, a.fn, rel, spec)
				if err != nil {
					t.Fatal(err)
				}
				if ok, diff := want.Equal(res); !ok {
					t.Error(diff)
				}
			})
		}
	}
}

// TestClusterShapes varies k and m, including memory tighter than n/k.
func TestClusterShapes(t *testing.T) {
	rel := data.GenZipf(600, 13)
	want := cube.Brute(rel, agg.Count)
	for _, shape := range []struct{ k, m int }{
		{1, 0}, {2, 0}, {7, 0}, {16, 0},
		{4, 50},  // memory much tighter than n/k: everything looks skewed
		{4, 600}, // memory covers the whole relation: nothing is skewed
	} {
		for _, a := range allAlgorithms {
			t.Run(fmt.Sprintf("%s/k%d-m%d", a.name, shape.k, shape.m), func(t *testing.T) {
				eng := mr.New(mr.Config{Workers: shape.k, MemTuples: shape.m}, cubetest.NewEngine(1).FS)
				eng.FS.Remove("out/")
				res, _, err := cubetest.RunAndCollect(eng, a.fn, rel, cube.Spec{Agg: agg.Count})
				if err != nil {
					t.Fatal(err)
				}
				if ok, diff := want.Equal(res); !ok {
					t.Error(diff)
				}
			})
		}
	}
}

// TestAlgorithmsAgreePairwise validates outputs against each other via DFS
// checksums over a larger input than the brute-force tests can afford.
func TestAlgorithmsAgreePairwise(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rel := data.WikiTraffic(20_000, 17)
	sums := make(map[string]uint64)
	recs := make(map[string]int64)
	for _, a := range allAlgorithms {
		eng := mr.New(mr.Config{Workers: 10}, nil) // discard DFS: checksums only
		run, err := a.fn(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		sums[a.name] = eng.FS.TotalChecksum(run.OutputPrefix)
		recs[a.name] = eng.FS.TotalRecords(run.OutputPrefix)
	}
	for _, a := range allAlgorithms[1:] {
		if sums[a.name] != sums["sp-cube"] {
			t.Errorf("%s output checksum differs from sp-cube (%d vs %d records)",
				a.name, recs[a.name], recs["sp-cube"])
		}
	}
}

// TestSeedIndependence: the cube must not depend on the sampling seed, only
// the performance profile may.
func TestSeedIndependence(t *testing.T) {
	rel := data.GenBinomial(2_000, 3, 0.5, 19)
	want := cube.Brute(rel, agg.Count)
	for seed := int64(0); seed < 5; seed++ {
		fn := func(eng *mr.Engine, r *relation.Relation, spec cube.Spec) (*cube.Run, error) {
			return spalgo.ComputeOpts(eng, r, spec, spalgo.Options{Seed: seed})
		}
		eng := cubetest.NewEngine(6)
		res, _, err := cubetest.RunAndCollect(eng, fn, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := want.Equal(res); !ok {
			t.Errorf("seed %d: %s", seed, diff)
		}
	}
}

// TestMeasureOverflowSafety: large measures must not corrupt varint
// encodings through the full pipeline.
func TestMeasureOverflowSafety(t *testing.T) {
	rel := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b"}, MeasureName: "m"}}
	big := []int64{1 << 60, -(1 << 60), 0, 1, -1}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		rel.Append([]relation.Value{int32(rng.Intn(3)), int32(rng.Intn(3))}, big[rng.Intn(len(big))])
	}
	for _, a := range allAlgorithms {
		if err := cubetest.CheckAgainstBrute(a.fn, rel, agg.Sum, 3); err != nil {
			t.Errorf("%s: %v", a.name, err)
		}
		if err := cubetest.CheckAgainstBrute(a.fn, rel, agg.Min, 3); err != nil {
			t.Errorf("%s min: %v", a.name, err)
		}
	}
}
