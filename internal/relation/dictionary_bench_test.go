package relation

import (
	"math/rand"
	"strconv"
	"testing"
)

// dictCells is one column of 2·distinct cells holding distinct random values,
// each seen first at an even cell and repeated at a later odd one — half the
// cells are repeats — as the CSV field bytes ReadCSV hands EncodeBytes. A
// text column prefixes each value with "v", so no entry is an integer one.
func dictCells(distinct int, text bool) [][]byte {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[int32]bool, distinct)
	var vals []int32
	cells := make([][]byte, 0, 2*distinct)
	field := func(n int32) []byte {
		if text {
			return strconv.AppendInt([]byte("v"), int64(n), 10)
		}
		return strconv.AppendInt(nil, int64(n), 10)
	}
	for len(vals) < distinct {
		n := rng.Int31()
		if seen[n] {
			continue
		}
		seen[n] = true
		vals = append(vals, n)
		cells = append(cells, field(n), field(vals[rng.Intn(len(vals))]))
	}
	return cells
}

// BenchmarkDictionaryEncode encodes a column of 280 k distinct values — the
// size of each column of iceberg_skew_spill's batch input — into a fresh
// dictionary, once as integer entries and once as text ones.
func BenchmarkDictionaryEncode(b *testing.B) {
	for _, bc := range []struct {
		name string
		text bool
	}{{"int280k", false}, {"text280k", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cells := dictCells(280000, bc.text)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := NewDictionary(1)
				for _, c := range cells {
					d.EncodeBytes(0, c)
				}
				if d.Cardinality(0) != 280000 {
					b.Fatalf("Cardinality = %d, want 280000", d.Cardinality(0))
				}
			}
			b.ReportMetric(float64(len(cells)*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkDictionaryClone times the copy every ingest takes of a served
// relation's dictionary, at full_uniform's serve size: four integer columns
// of 58 k distinct values each.
func BenchmarkDictionaryClone(b *testing.B) {
	d := NewDictionary(4)
	for col := range 4 {
		for _, c := range dictCells(58000, false) {
			d.EncodeBytes(col, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Clone().Cardinality(3) != d.Cardinality(3) {
			b.Fatal("clone lost entries")
		}
	}
}
