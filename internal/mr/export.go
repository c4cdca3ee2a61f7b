package mr

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// LoadBalance summarizes how evenly a byte quantity is spread over a
// round's reduce tasks — the paper's §6.2 closing claim is that SP-Cube's
// reducer outputs are near-balanced while hash partitioning under skew is
// not.
type LoadBalance struct {
	Tasks       int     `json:"tasks"`
	MinBytes    int64   `json:"minBytes"`
	MedianBytes int64   `json:"medianBytes"`
	MaxBytes    int64   `json:"maxBytes"`
	MeanBytes   float64 `json:"meanBytes"`
	// MaxOverMedian is the imbalance ratio (1 = perfectly balanced); when
	// the median is zero it degrades to the raw maximum.
	MaxOverMedian float64 `json:"maxOverMedian"`
	// Histogram counts tasks per bucket over the linear range [0,
	// maxBytes], in 8 equal-width buckets (all tasks land in bucket 0 when
	// maxBytes is 0).
	Histogram [8]int `json:"histogram"`
}

// NewLoadBalance builds the balance summary of one byte-size-per-task
// vector; nil for an empty vector.
func NewLoadBalance(sizes []int64) *LoadBalance {
	if len(sizes) == 0 {
		return nil
	}
	sorted := append([]int64(nil), sizes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lb := &LoadBalance{
		Tasks:       len(sizes),
		MinBytes:    sorted[0],
		MedianBytes: sorted[len(sorted)/2],
		MaxBytes:    sorted[len(sorted)-1],
	}
	var sum int64
	for _, s := range sorted {
		sum += s
	}
	lb.MeanBytes = float64(sum) / float64(len(sorted))
	if lb.MedianBytes > 0 {
		lb.MaxOverMedian = float64(lb.MaxBytes) / float64(lb.MedianBytes)
	} else {
		lb.MaxOverMedian = float64(lb.MaxBytes)
	}
	for _, s := range sorted {
		b := 0
		if lb.MaxBytes > 0 {
			b = int(int64(len(lb.Histogram)-1) * s / lb.MaxBytes)
		}
		lb.Histogram[b]++
	}
	return lb
}

// MarshalJSON renders the round — the struct's tagged fields are the
// document — and appends the two derived summaries of how evenly the shuffle
// input and the output were spread over the round's reducers.
func (r RoundMetrics) MarshalJSON() ([]byte, error) {
	type fields RoundMetrics // the tagged fields without this method
	in := make([]int64, len(r.Reducers))
	for i := range r.Reducers {
		in[i] = r.Reducers[i].InBytes
	}
	return json.Marshal(struct {
		fields
		ReducerInputBalance  *LoadBalance `json:"reducerInputBalance,omitempty"`
		ReducerOutputBalance *LoadBalance `json:"reducerOutputBalance,omitempty"`
	}{fields(r), NewLoadBalance(in), NewLoadBalance(r.ReducerOutputBytes())})
}

// MarshalJSON renders the job's metrics as the stable, versioned document
// described by MetricsSchemaVersion: job-level totals, per-round and
// per-task counters, retry accounting, reducer load-balance summaries, and
// simulated vs. wall time.
func (j *JobMetrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		SchemaVersion int            `json:"schemaVersion"`
		Rounds        []RoundMetrics `json:"rounds"`
		Totals
	}{
		MetricsSchemaVersion,
		append([]RoundMetrics{}, j.Rounds...), // [] even for a job with no rounds: consumers require an array
		j.Totals(),
	})
}

// ExportMetrics writes the job's metrics document as indented JSON.
func ExportMetrics(w io.Writer, j *JobMetrics) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("mr: export metrics: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
