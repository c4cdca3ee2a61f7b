package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side of
// the layer's public functions. Times are nanoseconds since the tracer was
// created; Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Self is filled in by finish: duration minus the part children cover.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. The zero cost of a span
// is two clock reads and an append under a mutex — the traced pass times
// calls that take milliseconds to seconds; per-query loops are wrapped as
// one span per loop, never one per query.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// add records a span whose interval was measured by the layer itself (an
// MR round's wall time from mr.JobMetrics) rather than by the harness.
func (t *tracer) add(parent int, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: start, End: end})
	return id
}

// offset converts a wall-clock time (one the engine stamped on a trace
// event) to nanoseconds since the tracer was created.
func (t *tracer) offset(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// duration returns a closed span's length.
func (t *tracer) duration(id int) time.Duration {
	start, end := t.interval(id)
	return time.Duration(end - start)
}

// interval returns a span's start and end offsets.
func (t *tracer) interval(id int) (start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Start, t.spans[id-1].End
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent and overlapping children are merged first, so time two children
// share is subtracted once.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// sumByName totals durations and self times per span name.
func sumByName(spans []span) (dur, self map[string]time.Duration) {
	dur = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		dur[s.Name] += time.Duration(s.End - s.Start)
		self[s.Name] += time.Duration(s.Self)
	}
	return dur, self
}
