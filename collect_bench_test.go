package spcube

import (
	"io"
	"strconv"
	"testing"

	"github.com/spcube/spcube/internal/data"
)

// BenchmarkComputeWriteCSV times what a batch run does after loading its
// input: the two SP-Cube rounds, collecting the reducers' output, and
// rendering it as CSV. The relation is the benchmark harness's full_uniform
// shape — 80 k uniform rows, four dimensions, 1.2 M groups — loaded as
// strings the way the CLI loads a CSV file. Collecting happens inside
// Compute, so the two calls are timed together. It uses only API that
// `make bench-compare` finds at older commits too.
func BenchmarkComputeWriteCSV(b *testing.B) {
	src := data.Uniform(80000, 4, 1<<30, 1)
	names := make([]string, src.D())
	for i := range names {
		names[i] = "d" + strconv.Itoa(i)
	}
	rel := NewRelation(names, "m")
	row := make([]string, src.D())
	for _, t := range src.Tuples {
		for i, v := range t.Dims {
			row[i] = strconv.Itoa(int(v))
		}
		rel.AddRow(row, t.Measure)
	}
	groups := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Compute(rel)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.WriteCSV(io.Discard, "count"); err != nil {
			b.Fatal(err)
		}
		groups += c.NumGroups()
	}
	b.ReportMetric(float64(groups)/b.Elapsed().Seconds(), "groups/s")
}
