package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/spcube/spcube/internal/lattice"
)

// ReadCSV reads the programs' input shape — a header row naming the
// columns, every column but the last a dimension, the last an integer
// measure — into a dictionary-encoded relation. It is the one CSV reader
// behind spcube, spcube -delta and spserve.
func ReadCSV(r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	d := len(header) - 1
	if d < 1 {
		return nil, fmt.Errorf("need at least one dimension column and a measure column, got %d columns", len(header))
	}
	if d > lattice.MaxDims {
		return nil, fmt.Errorf("%d dimensions exceed the supported maximum %d", d, lattice.MaxDims)
	}
	rel := New(header[:d], header[d]) // New copies the names out of the reused record
	for line := 2; ; line++ {
		// encoding/csv rejects a row whose column count differs from the
		// header's, so rec[:d] and rec[d] are always in range.
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		m, err := strconv.ParseInt(rec[d], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: measure %q is not an integer: %w", line, rec[d], err)
		}
		rel.AppendStrings(rec[:d], m)
	}
	if rel.N() == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	return rel, nil
}
