package spcube

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"github.com/spcube/spcube/internal/data"
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
// once, written to io.Discard.
func BenchmarkWriteCSV(b *testing.B) {
	c, err := Compute(uniformRelation())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteCSV(io.Discard, "count"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.NumGroups()*b.N)/b.Elapsed().Seconds(), "groups/s")
}

// BenchmarkReadCSV times the load alone: the skewed shape's CSV bytes to a
// dictionary-encoded relation.
func BenchmarkReadCSV(b *testing.B) {
	csv := skewedCSV()
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
