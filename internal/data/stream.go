package data

import (
	"strconv"

	"github.com/spcube/spcube/internal/relation"
)

// This file is the streaming face of the generators: every dataset can be
// produced one row at a time, in O(1) memory, without materializing a
// relation — cmd/gendata pipes rows straight to CSV. A Stream drains the
// same source the materializing generator does, so the streamed rows are
// byte-for-byte the rows GenBinomial/Uniform/GenZipf/WikiTraffic/USAGov/
// Retail would have written (TestStreamMatchesMaterialized pins this).

// Stream yields one dataset's rows one at a time.
type Stream struct {
	// Header is the CSV header: the dimension names then the measure name.
	Header []string
	src    *source
	i      int
	dims   []relation.Value
}

// Next fills row (len(Header): dimension strings then the measure) with
// the next data row, returning false once all rows have been produced.
func (s *Stream) Next(row []string) bool {
	if s.i >= s.src.n {
		return false
	}
	s.i++
	measure := s.src.next(s.dims)
	for j, v := range s.dims {
		row[j] = s.src.str(j, v)
	}
	row[len(s.dims)] = strconv.FormatInt(measure, 10)
	return true
}

// StreamByName resolves a dataset name to its streamer with cmd/gendata's
// parameter conventions (p and d apply to binomial, d to uniform).
func StreamByName(name string, n, d int, p float64, seed int64) (*Stream, error) {
	src, err := sourceByName(name, n, d, p, seed)
	if err != nil {
		return nil, err
	}
	header := append(append([]string(nil), src.dims...), src.measure)
	return &Stream{Header: header, src: src, dims: make([]relation.Value, len(src.dims))}, nil
}
