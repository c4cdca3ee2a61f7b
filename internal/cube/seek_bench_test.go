package cube_test

// BenchmarkCursorSeek times the maintainer's reads of its base: one cursor per
// cycle over full_uniform's served cube (the 870 k groups of 58 k uniform rows,
// as delta.New computes them), seeking about 4.8 k ascending keys — a 300-row
// batch's 300 × 16 groups — half of them present and half absent. It uses only
// API that `make bench-compare` finds at older commits too.

import (
	"bytes"
	"slices"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

func BenchmarkCursorSeek(b *testing.B) {
	const present, absent = 2400, 2400
	rel := data.Uniform(58000, 4, 1<<30, 1)
	eng := mr.New(mr.Config{Workers: 8, Seed: 1}, dfs.New(false))
	spec := cube.Spec{Agg: agg.Count}
	res, err := algo.Table[0].New(1)(eng, rel, spec)
	if err != nil {
		b.Fatal(err)
	}
	run, err := cube.CollectRun(eng, res.OutputPrefix, rel.D(), spec)
	if err != nil {
		b.Fatal(err)
	}
	groups := run.Len()
	var probes [][]byte
	i := 0
	run.EachState(func(key, _ []byte) bool {
		if i%(groups/present) == 0 && len(probes) < present {
			probes = append(probes, slices.Clone(key))
		}
		i++
		return true
	})
	// Absent keys: the groups of other tuples of the same shape, which
	// the run lacks.
	other := data.Uniform(absent, 4, 1<<30, 2)
	for j, t := range other.Tuples {
		mask := lattice.Mask(1 + j%15)
		if _, ok := run.Lookup(mask, t.Dims); !ok {
			probes = append(probes, relation.EncodeGroupKey(nil, uint32(mask), t.Dims))
		}
	}
	slices.SortFunc(probes, bytes.Compare)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, hits := run.Cursor(), 0
		for _, key := range probes {
			if _, ok := cur.Seek(key); ok {
				hits++
			}
		}
		if hits != present {
			b.Fatalf("%d of %d probes found, want %d", hits, len(probes), present)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/seek")
}
