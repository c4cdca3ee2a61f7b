package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the launcher and as the reference
// kernel, as the harness binary does (see launchFlag and refFlag).
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == launchFlag {
		os.Exit(launch(os.Args[2:]))
	}
	if len(os.Args) == 3 && os.Args[1] == refFlag {
		os.Exit(refMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

func TestReducers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := minOf(xs); got != 1 {
		t.Errorf("minOf = %v, want 1", got)
	}
	if got := maxOf(xs); got != 5 {
		t.Errorf("maxOf = %v, want 5", got)
	}
	if got := median(xs); got != 3 {
		t.Errorf("median of 5 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("reducers reordered their input: %v", xs)
	}
	for _, f := range []func([]float64) float64{minOf, maxOf, median} {
		if !math.IsNaN(f(nil)) {
			t.Errorf("reducer of an empty sample is not NaN")
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p99 of 7 samples is the largest.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 70}, 99); got != 70 {
		t.Errorf("p99 of 7 samples = %v, want 70", got)
	}
}

// TestQuartilesMatchPython pins the arithmetic to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: 30..40 counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.x", Start: 10, End: 20}, // grandchild: not subtracted from root
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 38},   // inside a and b
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 20, "b": 30, "c": 30, "a.x": 10, "d": 3}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	dur, self := sumByName(spans)
	if dur["root"] != 100 || self["a"] != 20 {
		t.Errorf("sumByName: dur[root]=%v self[a]=%v", dur["root"], self["a"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin(0, "root")
	child := tr.begin(root, "child")
	tr.end(child)
	start, end := tr.interval(child)
	tr.add(root, "measured", start, end)
	tr.end(root)
	spans := tr.finish()
	if len(spans) != 3 || spans[1].Parent != root || spans[0].Workload != "w" {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if spans[0].Self != (spans[0].End-spans[0].Start)-(spans[1].End-spans[1].Start) {
		t.Errorf("root self time did not merge the coincident children: %+v", spans)
	}
}

// TestRefKernelIsFixed pins the reference kernel's work. Every reported
// timing is scaled by its reading, so a change to it moves every metric and
// invalidates every stored baseline: this test has to be edited with it.
func TestRefKernelIsFixed(t *testing.T) {
	var out bytes.Buffer
	refKernel(500, &out)
	sum := sha256.Sum256(out.Bytes())
	const want = "678384a70881e062440b4f8f6be507cde31ebf630295eb3e6bb1d26562fdd558"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("reference kernel output changed: sha256 %s (%d bytes), want %s", got, out.Len(), want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestTablesAreValid(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.ServeRows >= w.BatchRows {
			t.Errorf("workload %s leaves no rows to ingest", w.Name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setupBound, maxBound := 0.0, 0.0
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
		maxBound = math.Max(maxBound, d.Bound)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric with the largest bound (has %v, max %v)", setupBound, maxBound)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, and the tables the harness reports from, in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n harness %+v", doc.PerLayer, perLayer)
	}
}

func TestReferenceMasks(t *testing.T) {
	for _, d := range []int{4, 6} {
		masks := referenceMasks(d)
		if len(masks) != 8 {
			t.Errorf("d=%d: %d reference cuboids, want 8", d, len(masks))
		}
		has := map[uint32]bool{}
		for _, m := range masks {
			has[m] = true
		}
		for j := 0; j <= d; j++ { // the rollup chain, apex and finest included
			if !has[1<<uint(j)-1] {
				t.Errorf("d=%d: chain cuboid %b missing", d, 1<<uint(j)-1)
			}
		}
	}
	if got := keyMask([]byte("12,*,7,*")); got != 0b0101 {
		t.Errorf("keyMask = %b, want 101", got)
	}
	if got := keyMask([]byte("*,*")); got != 0 {
		t.Errorf("keyMask of the apex = %b, want 0", got)
	}
}

func TestVerifyCube(t *testing.T) {
	in := &inputs{d: 2, minSup: 1, batchRef: map[string]int32{"*,*": 3, "a,*": 2, "b,*": 1}}
	in.refMask[0b00], in.refMask[0b01] = true, true
	good := "x,y,count\n*,*,3\na,*,2\nb,*,1\n*,q,3\n"
	if n, err := in.verifyCube(strings.NewReader(good)); err != nil || n != 4 {
		t.Errorf("good cube: %d groups, err %v", n, err)
	}
	for name, bad := range map[string]string{
		"wrong value":   "x,y,count\n*,*,4\na,*,2\nb,*,1\n",
		"missing group": "x,y,count\n*,*,3\na,*,2\n",
		"extra group":   "x,y,count\n*,*,3\na,*,2\nb,*,1\nc,*,1\n",
		"duplicate":     "x,y,count\n*,*,3\na,*,2\na,*,2\nb,*,1\n",
	} {
		if _, err := in.verifyCube(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSmoke runs every workload end to end at the smoke scale, traced, and
// asserts the full metric set and zero failed operations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), runConfig{w: w, sc: smokeScale, seed: 2016, seconds: 30, trace: true, log: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		if len(res.PerLayer) != len(perLayer) || len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end and %d per-layer values, tables have %d and %d",
				w.Name, len(res.EndToEnd), len(res.PerLayer), len(endToEnd), len(perLayer))
		}
	}
}
