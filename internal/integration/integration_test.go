// Package integration is the end-to-end safety net on top of the
// per-package suites. Its two fuzz targets hold every cube algorithm, and
// incremental maintenance, to brute force and to their own runs at another
// parallelism, without faults and without a spill budget.
package integration

import (
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

type namedAlgorithm struct {
	name string
	fn   cube.ComputeFunc
}

// allAlgorithms is the shared algorithm table at the default seed, with
// Hive's OOM failure disabled so correctness can be checked even on
// configurations that would OOM its reducers.
var allAlgorithms = func() []namedAlgorithm {
	var out []namedAlgorithm
	for _, a := range algo.Table {
		fn := a.New(0)
		if a.Name == "hive" {
			fn = func(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
				return hivecube.ComputeOpts(eng, rel, spec, hivecube.Options{DisableOOM: true})
			}
		}
		out = append(out, namedAlgorithm{a.Name, fn})
	}
	return out
}()

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
