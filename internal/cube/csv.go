package cube

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"github.com/spcube/spcube/internal/relation"
)

// EachRow calls fn for every group in ascending group-key order with the
// group's full-width string form: one value per dimension of rel, "*" where
// the dimension is aggregated away. dims is reused between calls.
func (r *Result) EachRow(rel *relation.Relation, fn func(dims []string, value float64) error) error {
	keys := make([]string, 0, len(r.Groups))
	for key := range r.Groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	dims := make([]string, r.D)
	for _, key := range keys {
		mask, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			return err
		}
		j := 0
		for i := range dims {
			if mask&(1<<uint(i)) == 0 {
				dims[i] = "*"
				continue
			}
			dims[i] = rel.DimString(i, packed[j])
			j++
		}
		if err := fn(dims, r.Groups[key]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the cube as CSV: a header of rel's dimension names plus
// valueName, then one EachRow row per group with the aggregate in its
// shortest exact decimal form. It is the one cube writer behind spcube's
// plain and -delta modes.
func (r *Result) WriteCSV(w io.Writer, rel *relation.Relation, valueName string) error {
	cw := csv.NewWriter(w)
	row := append(append(make([]string, 0, r.D+1), rel.Schema.DimNames...), valueName)
	if err := cw.Write(row); err != nil {
		return err
	}
	err := r.EachRow(rel, func(dims []string, value float64) error {
		copy(row, dims)
		row[r.D] = strconv.FormatFloat(value, 'g', -1, 64)
		return cw.Write(row)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
