package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRunSpillBenchProducesValidDoc runs the benchmark at a small scale and
// checks the document's shape. The committed floors are asserted only on the
// full-scale artifact (BENCH_spill.json via `make bench-spill`), not here:
// at test scale the fixed round-startup charge dilutes the speedup.
func TestRunSpillBenchProducesValidDoc(t *testing.T) {
	doc, err := RunSpillBench(SpillConfig{
		Tuples: 4000, Workers: 8, Seed: 7,
		SpillBudgetBytes: 128 << 10, Repetitions: 1, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != SpillSchemaVersion || doc.Tool != "spbench" || doc.Algo != "fat-state-shuffle" {
		t.Errorf("doc header: %+v", doc)
	}
	if doc.Baseline.Codec != "raw" || doc.Pipeline.Codec != "lz" {
		t.Errorf("leg configurations: baseline %+v, pipeline %+v", doc.Baseline, doc.Pipeline)
	}
	if doc.Baseline.Spills == 0 || doc.Pipeline.Spills == 0 {
		t.Fatalf("workload never spilled: baseline %d, pipeline %d", doc.Baseline.Spills, doc.Pipeline.Spills)
	}
	// Front-coded (pre-compression) spill volume is codec-independent; the
	// physical volume must shrink under lz.
	if doc.Baseline.SpillBytes != doc.Pipeline.SpillBytes {
		t.Errorf("logical spill bytes differ across codecs: %d vs %d",
			doc.Baseline.SpillBytes, doc.Pipeline.SpillBytes)
	}
	if doc.Pipeline.SpilledBytes >= doc.Baseline.SpilledBytes {
		t.Errorf("lz leg wrote %d physical bytes, raw leg %d — no reduction",
			doc.Pipeline.SpilledBytes, doc.Baseline.SpilledBytes)
	}
	if doc.Speedup <= 0 || doc.WallSpeedup <= 0 || doc.BytesReduction <= 1 {
		t.Errorf("ratios not measured: speedup=%v wall=%v bytes=%v",
			doc.Speedup, doc.WallSpeedup, doc.BytesReduction)
	}
	var buf bytes.Buffer
	if err := WriteSpillDoc(&buf, doc); err != nil {
		t.Fatal(err)
	}
	// Structural validation must pass; only the performance floors may trip
	// at this scale, and their errors must name the committed floor.
	if err := ValidateSpillJSON(buf.Bytes()); err != nil &&
		!strings.Contains(err.Error(), "below the committed floor") {
		t.Fatalf("generated document fails structural validation: %v", err)
	}
}

// TestSpillBenchDeterministicAcrossRuns reruns the benchmark with the same
// seed and compares every deterministic field — the property that lets the
// committed artifact's gated quantities re-validate on any machine.
func TestSpillBenchDeterministicAcrossRuns(t *testing.T) {
	cfg := SpillConfig{Tuples: 3000, Workers: 6, Seed: 11,
		SpillBudgetBytes: 64 << 10, Repetitions: 1}
	a, err := RunSpillBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpillBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, legs := range [][2]SpillLeg{{a.Baseline, b.Baseline}, {a.Pipeline, b.Pipeline}} {
		x, y := legs[0], legs[1]
		x.WallSeconds, y.WallSeconds = 0, 0
		if x != y {
			t.Errorf("deterministic leg fields differ across runs:\n%+v\n%+v", x, y)
		}
	}
	if a.Speedup != b.Speedup || a.BytesReduction != b.BytesReduction {
		t.Errorf("gated ratios differ across runs: %v/%v vs %v/%v",
			a.Speedup, a.BytesReduction, b.Speedup, b.BytesReduction)
	}
}

func TestValidateSpillJSON(t *testing.T) {
	leg := func(codec string, spilled float64) map[string]any {
		return map[string]any{
			"codec": codec, "mergeFanIn": 0,
			"simSeconds": 10.0, "wallSeconds": 0.5,
			"spillBytes": 1000000.0, "spilledBytes": spilled,
			"spills": 40, "mergePasses": 0,
		}
	}
	good := map[string]any{
		"schemaVersion": SpillSchemaVersion, "tool": "spbench", "algo": "fat-state-shuffle",
		"tuples": 100000, "valueBytes": 512, "workers": 20, "seed": 2016,
		"spillBudgetBytes": 1048576, "repetitions": 3,
		"baseline": leg("raw", 1000000.0),
		"pipeline": leg("lz", 250000.0),
		"speedup":  1.4, "wallSpeedup": 0.9, "bytesReduction": 4.0,
	}
	enc := func(mut func(map[string]any)) []byte {
		d := make(map[string]any, len(good))
		for k, v := range good {
			d[k] = v
		}
		if mut != nil {
			mut(d)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := ValidateSpillJSON(enc(nil)); err != nil {
		t.Fatalf("good document rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(map[string]any)
		want string
	}{
		{"missing version", func(d map[string]any) { delete(d, "schemaVersion") }, "schemaVersion"},
		{"wrong version", func(d map[string]any) { d["schemaVersion"] = 9 }, "schemaVersion 9"},
		{"wrong tool", func(d map[string]any) { d["tool"] = "other" }, "tool"},
		{"missing algo", func(d map[string]any) { delete(d, "algo") }, "algo"},
		{"missing ratio", func(d map[string]any) { delete(d, "bytesReduction") }, "bytesReduction"},
		{"zero tuples", func(d map[string]any) { d["tuples"] = 0 }, "tuples"},
		{"missing leg", func(d map[string]any) { delete(d, "pipeline") }, "pipeline leg"},
		{"leg without codec", func(d map[string]any) {
			d["baseline"] = leg("", 1000000.0)
		}, "baseline leg has no codec"},
		{"leg never spilled", func(d map[string]any) {
			l := leg("lz", 250000.0)
			l["spills"] = 0
			d["pipeline"] = l
		}, "spills"},
		{"speedup below floor", func(d map[string]any) { d["speedup"] = 1.1 }, "1.10x is below the committed floor 1.3x"},
		{"bytes below floor", func(d map[string]any) { d["bytesReduction"] = 1.6 }, "1.60x is below the committed floor 2.0x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateSpillJSON(enc(tc.mut))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := ValidateSpillJSON([]byte("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestCommittedSpillArtifactValidates pins the repository's committed
// BENCH_spill.json to the validator, floors included — the same check
// `make bench-spill` and the CI bench leg run.
func TestCommittedSpillArtifactValidates(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_spill.json")
	if err != nil {
		t.Skipf("committed artifact not found: %v", err)
	}
	if err := ValidateSpillJSON(data); err != nil {
		t.Errorf("committed BENCH_spill.json fails validation: %v", err)
	}
}
