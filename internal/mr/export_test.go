package mr

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNewLoadBalance(t *testing.T) {
	if NewLoadBalance(nil) != nil {
		t.Error("empty vector must yield nil")
	}
	lb := NewLoadBalance([]int64{10, 40, 20, 80})
	if lb.Tasks != 4 || lb.MinBytes != 10 || lb.MaxBytes != 80 {
		t.Errorf("extrema: %+v", lb)
	}
	if lb.MedianBytes != 40 {
		t.Errorf("median = %d, want 40", lb.MedianBytes)
	}
	if lb.MeanBytes != 37.5 {
		t.Errorf("mean = %v, want 37.5", lb.MeanBytes)
	}
	if lb.MaxOverMedian != 2 {
		t.Errorf("max/median = %v, want 2", lb.MaxOverMedian)
	}
	var total int
	for _, c := range lb.Histogram {
		total += c
	}
	if total != 4 {
		t.Errorf("histogram counts %d tasks, want 4", total)
	}
	if lb.Histogram[len(lb.Histogram)-1] != 1 {
		t.Errorf("max value must land in the last bucket: %v", lb.Histogram)
	}
	// Perfectly balanced vector: ratio 1, everything in the top bucket.
	lb = NewLoadBalance([]int64{5, 5, 5})
	if lb.MaxOverMedian != 1 || lb.Histogram[len(lb.Histogram)-1] != 3 {
		t.Errorf("balanced vector: %+v", lb)
	}
	// All-zero vector degrades without dividing by zero.
	lb = NewLoadBalance([]int64{0, 0})
	if lb.MaxOverMedian != 0 || lb.Histogram[0] != 2 {
		t.Errorf("zero vector: %+v", lb)
	}
}

func runSmallJob(t *testing.T, par int) *JobMetrics {
	t.Helper()
	tuples, _ := tuplesFromWords(strings.Fields(strings.Repeat("a b c d ", 100)))
	eng := New(Config{Workers: 4, Seed: 3, Parallelism: par}, nil)
	counts := make(map[string]int64)
	res, err := eng.RunTuples(wordCountJob(counts), tuples)
	if err != nil {
		t.Fatal(err)
	}
	var jm JobMetrics
	jm.Add(res.Metrics)
	return &jm
}

func TestMetricsMarshalJSONSchema(t *testing.T) {
	data, err := json.Marshal(runSmallJob(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if v, ok := doc["schemaVersion"].(float64); !ok || int(v) != MetricsSchemaVersion {
		t.Errorf("schemaVersion = %v, want %d", doc["schemaVersion"], MetricsSchemaVersion)
	}
	rounds, ok := doc["rounds"].([]any)
	if !ok || len(rounds) != 1 {
		t.Fatalf("rounds: %v", doc["rounds"])
	}
	round := rounds[0].(map[string]any)
	for _, key := range []string{"job", "shuffleBytes", "mappersExecuted", "reducersExecuted",
		"simSeconds", "wallSeconds", "retries", "mappers", "reducers", "reducerInputBalance"} {
		if _, ok := round[key]; !ok {
			t.Errorf("round document lacks %q", key)
		}
	}
	if got := len(round["mappers"].([]any)); got != 4 {
		t.Errorf("mappers in document = %d, want 4", got)
	}
	task := round["mappers"].([]any)[0].(map[string]any)
	for _, key := range []string{"inRecords", "outBytes", "cpuSeconds", "attempts"} {
		if _, ok := task[key]; !ok {
			t.Errorf("task document lacks %q", key)
		}
	}
	lb := round["reducerInputBalance"].(map[string]any)
	if _, ok := lb["maxOverMedian"]; !ok {
		t.Error("load-balance document lacks maxOverMedian")
	}
}

func TestMetricsJSONDeterministicAcrossParallelism(t *testing.T) {
	var docs [2][]byte
	for i, par := range []int{1, 8} {
		jm := runSmallJob(t, par).WithoutVolatile()
		var err error
		if docs[i], err = json.Marshal(&jm); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("metrics document differs between parallelism 1 and 8 after zeroing the volatile fields")
	}
}

func TestExportMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportMetrics(&buf, runSmallJob(t, 1)); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Error("exported document must end with a newline")
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("exported document is not valid JSON: %v", err)
	}
	if !bytes.Contains(out, []byte("\n  ")) {
		t.Error("exported document must be indented")
	}
}

// TestCountersAddCoversEveryField makes "one add" self-enforcing: a counter
// declared in Counters but forgotten in add keeps its zero and fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var one, sum Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("Counters.%s is a %s: additive counters are int64 or float64", v.Type().Field(i).Name, f.Kind())
		}
	}
	sum.add(&one)
	sum.add(&one)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			if got.Field(i).Int() != 2*f.Int() {
				t.Errorf("add does not sum Counters.%s", name)
			}
		case reflect.Float64:
			if got.Field(i).Float() != 2*f.Float() {
				t.Errorf("add does not sum Counters.%s", name)
			}
		}
	}
}

// keyPaths collects the path of every object key in a decoded JSON tree,
// arrays marked "[]" — the order-free shape of the document.
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(sub, p, out)
		}
	case []any:
		for _, sub := range x {
			keyPaths(sub, prefix+"[]", out)
		}
	}
}

// TestMetricsDocumentKeyPaths pins schema v6: the document's key-path set —
// 136 paths for an ordinary run, 143 with a maintenance annotation — equals
// the golden captured from the last commit that still copied the structs
// into hand-written wire mirrors. Adding, renaming or dropping a key edits
// the golden (and, when incompatible, bumps MetricsSchemaVersion).
func TestMetricsDocumentKeyPaths(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_keypaths.txt")
	if err != nil {
		t.Fatal(err)
	}
	jm := runSmallJob(t, 1)
	for _, tc := range []struct {
		name  string
		maint *MaintInfo
		paths int
	}{
		{"ordinary", nil, 136},
		{"maint", &MaintInfo{Round: 1, Mode: "delta", Reason: "mergeable"}, 143},
	} {
		var want []string
		for _, p := range strings.Fields(string(golden)) {
			if tc.maint != nil || !strings.HasPrefix(p, "rounds[].maint") {
				want = append(want, p)
			}
		}
		jm.Rounds[0].Maint = tc.maint
		data, err := json.Marshal(jm)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool)
		keyPaths(doc, "", set)
		var got []string
		for p := range set {
			got = append(got, p)
		}
		sort.Strings(got)
		if len(want) != tc.paths {
			t.Errorf("%s: golden holds %d paths, want %d", tc.name, len(want), tc.paths)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: document key paths differ from testdata/metrics_keypaths.txt\n got: %v\nwant: %v", tc.name, got, want)
		}
	}
}
