package spcube

import (
	"bytes"
	"io"
	"runtime"
	"strconv"
	"testing"

	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// uniformRelation is the benchmark harness's full_uniform shape — 80 k uniform
// rows, four dimensions, 1.2 M groups — loaded as strings the way the CLI
// loads a CSV file.
func uniformRelation() *Relation {
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
	return rel
}

// skewedCSV is the benchmark harness's iceberg_skew_spill shape at a quarter
// of its rows: 140 k rows of six integer dimensions, half of them hot
// patterns, as CSV bytes.
func skewedCSV() []byte {
	src := data.GenBinomial(140000, 6, 0.5, 1)
	var csv bytes.Buffer
	for i := 0; i < src.D(); i++ {
		csv.WriteString("d" + strconv.Itoa(i) + ",")
	}
	csv.WriteString("m\n")
	var line []byte
	for _, t := range src.Tuples {
		line = line[:0]
		for _, v := range t.Dims {
			line = append(strconv.AppendInt(line, int64(v), 10), ',')
		}
		line = append(strconv.AppendInt(line, t.Measure, 10), '\n')
		csv.Write(line)
	}
	return csv.Bytes()
}

// BenchmarkComputeWriteCSV times what a batch run does after loading its
// input: the two SP-Cube rounds, collecting the reducers' output, and
// rendering it as CSV, on the full_uniform shape. Collecting happens inside
// Compute, so the two calls are timed together. Like every benchmark in this
// file it uses only API that `make bench-compare` finds at older commits too.
func BenchmarkComputeWriteCSV(b *testing.B) {
	rel := uniformRelation()
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

// BenchmarkWriteCSV times the render alone: the full_uniform cube, computed
// once, written to io.Discard. index-B/group is what the cube holds beside
// its output records, per group: the heap the computed cube keeps in use less
// its records' bytes, each a distinct group's key, a tab and 8 value bytes.
func BenchmarkWriteCSV(b *testing.B) {
	rel := uniformRelation()
	var c *Cube
	live := liveMB(func() any {
		var err error
		if c, err = Compute(rel); err != nil {
			b.Fatal(err)
		}
		return c
	})
	index := live * 1e6
	c.run.Each(func(key []byte, _ lattice.Mask, _ []relation.Value, _ float64, _ int64) bool {
		index -= float64(len(key) + 1 + 8)
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteCSV(io.Discard, "count"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.NumGroups()*b.N)/b.Elapsed().Seconds(), "groups/s")
	b.ReportMetric(index/float64(c.NumGroups()), "index-B/group")
}

// BenchmarkReadCSV times the load alone: the skewed shape's CSV bytes to a
// dictionary-encoded relation. live-MB is what one loaded relation holds.
func BenchmarkReadCSV(b *testing.B) {
	csv := skewedCSV()
	live := liveMB(func() any {
		rel, err := ReadCSV(bytes.NewReader(csv))
		if err != nil {
			b.Fatal(err)
		}
		return rel
	})
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := ReadCSV(bytes.NewReader(csv))
		if err != nil {
			b.Fatal(err)
		}
		rows += rel.NumRows()
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(live, "live-MB")
}

// liveMB is the heap, in MB, that what load returns holds: the heap in use
// after a collection, with it and before it was made. Each reading follows
// two collections, which empty the sync.Pools: the first only moves a pool's
// items aside, and items a pool kept would count for or against load.
func liveMB(load func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := load()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc-before.HeapAlloc) / 1e6
}

// BenchmarkSkewedBatch times a batch run on the skewed shape with minimum
// support 10 and a 1 MiB spill budget with lz — from CSV bytes to the
// computed cube, so the load (dictionary encoding) and the mapper's skew path
// are both inside the timer.
func BenchmarkSkewedBatch(b *testing.B) {
	csv := skewedCSV()
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := ReadCSV(bytes.NewReader(csv))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Compute(rel, MinSupport(10), SpillBudget(1<<20), SpillCodec("lz")); err != nil {
			b.Fatal(err)
		}
		rows += rel.NumRows()
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}
