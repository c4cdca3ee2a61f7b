package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/mr"
)

// runFig6Doc runs the fig6 experiment at a tiny scale and assembles its
// metrics document.
func runFig6Doc(t *testing.T, par int, faults string) []byte {
	t.Helper()
	cfg := Config{Config: mr.Config{Workers: 10, Seed: 2016, Parallelism: par}, Scale: 0.01}
	if faults != "" {
		fp, err := mr.ParseFaultPlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fp
	}
	var col Collector
	cfg.Collect = col.Collect
	figs := Fig6(cfg)
	var buf bytes.Buffer
	if err := WriteMetricsDoc(&buf, NewMetricsDoc(cfg, "fig6", figs, col.Runs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMetricsDocValidates(t *testing.T) {
	data := runFig6Doc(t, 1, "")
	if err := ValidateMetricsJSON(data); err != nil {
		t.Fatalf("generated document fails validation: %v", err)
	}
	var doc MetricsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Tool != "spbench" || doc.Experiment != "fig6" {
		t.Errorf("tool/experiment: %s/%s", doc.Tool, doc.Experiment)
	}
	if doc.SchemaVersion != mr.MetricsSchemaVersion {
		t.Errorf("schemaVersion = %d", doc.SchemaVersion)
	}
	if len(doc.Figures) != 3 {
		t.Errorf("figures = %d, want 3 (fig6a-c)", len(doc.Figures))
	}
	// 6 skew levels × 3 algorithms = 18 runs.
	if len(doc.Runs) != 18 {
		t.Errorf("runs = %d, want 18", len(doc.Runs))
	}
	for i, r := range doc.Runs {
		if r.Metrics == nil {
			t.Fatalf("run %d (%s) has no metrics", i, r.Algo)
		}
		if len(r.Metrics.Rounds) == 0 {
			t.Errorf("run %d (%s) has no rounds", i, r.Algo)
		}
	}
	if doc.Environment.GoVersion == "" || doc.Environment.GeneratedAt == "" {
		t.Errorf("environment incomplete: %+v", doc.Environment)
	}
}

// TestValidateMetricsJSONAcceptsCurrentVersionOnly: exactly
// mr.MetricsSchemaVersion validates, at the top level and inside embedded
// run metrics; its neighbours are rejected with an error naming the
// offending and the accepted version.
func TestValidateMetricsJSONAcceptsCurrentVersionOnly(t *testing.T) {
	const shell = `{"schemaVersion":%d,"tool":"x","experiment":"y","workers":1,"seed":1,"scale":1,` +
		`"environment":{"goVersion":"go"},"figures":[],` +
		`"runs":[{"algo":"a","inputTuples":1,"metrics":{"schemaVersion":%d,"rounds":[]}}]}`
	cur := mr.MetricsSchemaVersion
	if err := ValidateMetricsJSON([]byte(fmt.Sprintf(shell, cur, cur))); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	want := fmt.Sprintf("want %d", cur)
	for _, bad := range []int{cur - 1, cur + 1} {
		for _, doc := range []string{fmt.Sprintf(shell, bad, cur), fmt.Sprintf(shell, cur, bad)} {
			err := ValidateMetricsJSON([]byte(doc))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("schemaVersion %d", bad)) ||
				!strings.Contains(err.Error(), want) {
				t.Errorf("v%d: error %v does not name the offending and accepted versions", bad, err)
			}
		}
	}
}

func TestValidateMetricsJSONRejectsMalformed(t *testing.T) {
	cur := fmt.Sprintf(`{"schemaVersion":%d`, mr.MetricsSchemaVersion)
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"not json", "nope", "metrics document"},
		{"no version", `{"tool":"spbench"}`, "schemaVersion"},
		{"wrong version", `{"schemaVersion":99,"tool":"x","experiment":"y"}`, "schemaVersion 99"},
		{"stale v1", `{"schemaVersion":1,"tool":"x","experiment":"y"}`, "schemaVersion 1"},
		{"no tool", cur + `}`, "missing tool"},
		{"no figures", cur + `,"tool":"x","experiment":"y","workers":1,"seed":1,"scale":1,"environment":{"goVersion":"go"}}`, "figures"},
		{"figure without id", cur + `,"tool":"x","experiment":"y","workers":1,"seed":1,"scale":1,"environment":{"goVersion":"go"},"figures":[{}],"runs":[]}`, "no id"},
		{"run without algo", cur + `,"tool":"x","experiment":"y","workers":1,"seed":1,"scale":1,"environment":{"goVersion":"go"},"figures":[],"runs":[{}]}`, "no algo"},
		{"run with bad metrics", cur + `,"tool":"x","experiment":"y","workers":1,"seed":1,"scale":1,"environment":{"goVersion":"go"},"figures":[],"runs":[{"algo":"a","inputTuples":1,"metrics":{"schemaVersion":1}}]}`, "metrics schemaVersion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateMetricsJSON([]byte(tc.doc))
			if err == nil {
				t.Fatal("validation accepted malformed document")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateMetricsJSONSyntaxErrorNamesPosition pins the validator's error
// quality: malformed JSON must be reported with the line and column of the
// problem, not the bare byte offset of encoding/json's unmarshal error.
func TestValidateMetricsJSONSyntaxErrorNamesPosition(t *testing.T) {
	err := ValidateMetricsJSON([]byte("{\n  \"schemaVersion\": 2,\n  \"tool\": spbench\n}"))
	if err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "column") {
		t.Fatalf("error %q does not carry line/column position", err)
	}
	// Documents that decode to the wrong top-level shape get the decoded
	// type named instead of a position-less failure.
	if err := ValidateMetricsJSON([]byte("[1, 2]")); err == nil {
		t.Fatal("array document accepted")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error %q does not locate the type mismatch", err)
	}
}

// TestMetricsDocDeterministicAcrossParallelism is the acceptance criterion:
// the exported document is byte-identical across parallelism levels after
// stripping the wall-clock and provenance fields — with and without an
// injected fault plan.
func TestMetricsDocDeterministicAcrossParallelism(t *testing.T) {
	for _, faults := range []string{"", "*:map:*:crash"} {
		a, err := StripVolatile(runFig6Doc(t, 1, faults))
		if err != nil {
			t.Fatal(err)
		}
		b, err := StripVolatile(runFig6Doc(t, 8, faults))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("faults=%q: document differs between parallelism 1 and 8", faults)
		}
	}
}

// TestMetricsDocFaultedMatchesCleanModuloRecovery checks the recovery
// contract at the document level: a faulted run differs from a fault-free
// one only in the recovery-accounting fields.
func TestMetricsDocFaultedMatchesCleanModuloRecovery(t *testing.T) {
	recovery := []string{"retries", "wastedBytes", "attempts"}
	clean, err := StripVolatile(runFig6Doc(t, 1, ""), recovery...)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := StripVolatile(runFig6Doc(t, 1, "*:map:*:crash"), append([]string{"faults"}, recovery...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, faulted) {
		t.Error("faulted document differs from fault-free beyond recovery fields")
	}
}

func TestStripVolatile(t *testing.T) {
	in := []byte(`{"a":1,"wallSeconds":2,"nested":{"time":"x","b":[{"generatedAt":"y","c":3}]}}`)
	out, err := StripVolatile(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":1,"nested":{"b":[{"c":3}]}}`
	if string(out) != want {
		t.Errorf("got %s, want %s", out, want)
	}
	if _, err := StripVolatile([]byte("bad")); err == nil {
		t.Error("StripVolatile accepted invalid JSON")
	}
}

func TestCollectorTracerWiring(t *testing.T) {
	st := &mr.SliceTracer{}
	cfg := Config{Config: mr.Config{Workers: 4, Seed: 1, Parallelism: 1, Tracer: st}, Scale: 0.01}
	var col Collector
	cfg.Collect = col.Collect
	figs := Rounds(cfg)
	if len(figs) == 0 {
		t.Fatal("no figures")
	}
	if len(col.Runs) == 0 {
		t.Error("Collect hook not invoked by Rounds")
	}
	if len(st.Events) == 0 {
		t.Error("Tracer not wired into Rounds engines")
	}
	// SketchQuality builds its engines separately; both hooks must reach it
	// too.
	st.Events, col.Runs = nil, nil
	SketchQuality(cfg)
	if len(col.Runs) == 0 || len(st.Events) == 0 {
		t.Error("SketchQuality missed Collect/Tracer wiring")
	}
}
