// Package cubetest provides shared helpers for the algorithm test suites:
// random relation generation and an end-to-end "run algorithm, collect
// output, compare against brute force" harness.
package cubetest

import (
	"fmt"
	"math/rand"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// RandomRelation builds a relation with n tuples, d dimensions, per-column
// cardinality card, and measures in [0, 100). Small cardinalities produce
// heavy natural skew; large ones produce near-distinct data.
func RandomRelation(rng *rand.Rand, n, d, card int) *relation.Relation {
	names := make([]string, d)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	rel := &relation.Relation{Schema: relation.Schema{DimNames: names, MeasureName: "m"}}
	dims := make([]relation.Value, d)
	for i := 0; i < n; i++ {
		for j := range dims {
			dims[j] = relation.Value(rng.Intn(card))
		}
		rel.Append(dims, int64(rng.Intn(100)))
	}
	return rel
}

// SkewedRelation builds a relation where a fraction p of tuples take one of
// hot identical patterns (the gen-binomial shape) and the rest are drawn
// uniformly from a large domain.
func SkewedRelation(rng *rand.Rand, n, d int, p float64, hot int) *relation.Relation {
	names := make([]string, d)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	rel := &relation.Relation{Schema: relation.Schema{DimNames: names, MeasureName: "m"}}
	dims := make([]relation.Value, d)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			v := relation.Value(1 + rng.Intn(hot))
			for j := range dims {
				dims[j] = v
			}
		} else {
			for j := range dims {
				dims[j] = relation.Value(rng.Int31())
			}
		}
		rel.Append(dims, int64(rng.Intn(100)))
	}
	return rel
}

// NewEngine builds an engine with a retaining (non-discard) DFS for result
// collection in tests.
func NewEngine(workers int) *mr.Engine {
	return mr.New(mr.Config{Workers: workers}, dfs.New(false))
}

// RunAndCollect executes a cube algorithm and parses its DFS output.
func RunAndCollect(eng *mr.Engine, f cube.ComputeFunc, rel *relation.Relation, spec cube.Spec) (*cube.Result, *cube.Run, error) {
	run, err := f(eng, rel, spec)
	if err != nil {
		return nil, nil, err
	}
	res, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D(), spec)
	if err != nil {
		return nil, run, err
	}
	return res, run, nil
}

// CheckAgainstBrute runs the algorithm and compares its full result with the
// brute-force ground truth, returning a diagnostic on mismatch.
func CheckAgainstBrute(f cube.ComputeFunc, rel *relation.Relation, fn agg.Func, workers int) error {
	eng := NewEngine(workers)
	res, _, err := RunAndCollect(eng, f, rel, cube.Spec{Agg: fn})
	if err != nil {
		return err
	}
	want := cube.Brute(rel, fn)
	if ok, diff := want.Equal(res); !ok {
		return fmt.Errorf("cube mismatch (n=%d d=%d agg=%s k=%d): %s",
			rel.N(), rel.D(), fn.Name(), workers, diff)
	}
	return nil
}
