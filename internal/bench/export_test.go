package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/mr"
)

var update = flag.Bool("update", false, "rewrite testdata/<leg>.golden.json from this tree")

// fig6Docs holds runFig6Doc's documents by configuration: the tests read
// seven documents of four configurations, and each is a whole sweep.
var fig6Docs = map[string][]byte{}

// runFig6Doc runs the fig6 experiment at a tiny scale and assembles its
// metrics document, once per configuration and test binary.
func runFig6Doc(t *testing.T, par int, faults string) []byte {
	t.Helper()
	key := fmt.Sprintf("%d %s", par, faults)
	if doc, ok := fig6Docs[key]; ok {
		return doc
	}
	cfg := Config{Config: mr.Config{Workers: 10, Seed: 2016, Parallelism: par}, Scale: 0.01}
	if faults != "" {
		fp, err := mr.ParseFaultPlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fp
	}
	fig6Docs[key] = experimentDoc(t, cfg, "fig6")
	return fig6Docs[key]
}

// experimentDoc runs one experiment under cfg and returns the metrics
// document `spbench -exp <id> -metrics-out` writes for it.
func experimentDoc(t *testing.T, cfg Config, id string) []byte {
	t.Helper()
	var col Collector
	cfg.Collect = col.Collect
	figs, err := ByID(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetricsDoc(&buf, NewMetricsDoc(cfg, id, figs, col.Runs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// golden is testdata/<leg>.golden.json: the sweep `spbench -exp <leg>
// -scale 0.05` runs, its figures, and the SHA-256 of its whole metrics
// document (every run's per-round, per-task metrics) once mr.StripVolatile has
// dropped what may differ between two runs of the same tree.
type golden struct {
	Experiment    string   `json:"experiment"`
	Workers       int      `json:"workers"`
	Seed          int64    `json:"seed"`
	Scale         float64  `json:"scale"`
	SchemaVersion int      `json:"schemaVersion"`
	Figures       []Figure `json:"figures"`
	MetricsSHA256 string   `json:"metricsSHA256"`
}

// goldenLegs are the pinned sweeps. Between them they run all five
// algorithms, both sampling rounds and both SP-Cube ablations: fig6 runs
// Pig, Hive and SP-Cube; ablation runs SP-Cube without skew handling,
// without factorization, and the naive cube; rounds runs Pipesort.
var goldenLegs = []string{"fig6", "ablation", "rounds"}

// TestFiguresGolden holds each leg's figures and metrics to its pinned
// golden: a change that moves any deterministic counter or simulated second
// of any of its runs fails here. `go test ./internal/bench -run
// TestFiguresGolden -update` (`make bench-json`) rewrites every golden after
// a deliberate change.
func TestFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens were recorded on amd64: the simulated seconds and the sweeps' sizes are free of fused multiply-adds, but math.Log, behind SP-Cube's sketch threshold β = ln(nk) (sketch.Params), is assembly on amd64 and portable Go on %s, and the two may round differently", runtime.GOARCH)
	}
	for _, leg := range goldenLegs {
		t.Run(leg, func(t *testing.T) { checkGolden(t, leg) })
	}
}

func checkGolden(t *testing.T, leg string) {
	path := "testdata/" + leg + ".golden.json"
	cfg := Config{Config: mr.Config{Workers: 20, Seed: 2016}, Scale: 0.05}
	data := experimentDoc(t, cfg, leg)
	var doc MetricsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	stripped, err := mr.StripVolatile(data)
	if err != nil {
		t.Fatal(err)
	}
	got := golden{
		Experiment: doc.Experiment, Workers: doc.Workers, Seed: doc.Seed, Scale: doc.Scale,
		SchemaVersion: doc.SchemaVersion, Figures: doc.Figures,
		MetricsSHA256: fmt.Sprintf("%x", sha256.Sum256(stripped)),
	}
	if *update {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got.Figures, want.Figures) {
		t.Errorf("%s figures differ from %s:\ngot  %+v\nwant %+v", leg, path, got.Figures, want.Figures)
	}
	got.Figures, want.Figures = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s metrics differ from %s:\ngot  %+v\nwant %+v", leg, path, got, want)
	}
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
		a, err := mr.StripVolatile(runFig6Doc(t, 1, faults))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mr.StripVolatile(runFig6Doc(t, 8, faults))
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
	clean, err := mr.StripVolatile(runFig6Doc(t, 1, ""), recovery...)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := mr.StripVolatile(runFig6Doc(t, 1, "*:map:*:crash"), append([]string{"faults"}, recovery...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, faulted) {
		t.Error("faulted document differs from fault-free beyond recovery fields")
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
