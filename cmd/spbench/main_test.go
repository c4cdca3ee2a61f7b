package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/bench"
	"github.com/spcube/spcube/internal/cli"
)

// exit runs one invocation the way main does and returns its exit status.
func exit(args []string, stdout, stderr io.Writer) int {
	return cli.Exit("spbench", stderr, run(context.Background(), args, stdout, stderr))
}

// TestFlagSurface pins spbench's flags and defaults against the literal
// captured from the commit before the shared flag groups existed, minus the
// four flags of the two retired pre-harness benchmark modes.
func TestFlagSurface(t *testing.T) {
	want := `backend=local
exp=all
faults=
format=table
k=20
max-attempts=0
merge-fan-in=0
metrics-out=
p=0
pprof=
scale=1
seed=2016
spill-budget=-1
spill-codec=raw
spill-dir=
trace=
validate=
`
	fs := flag.NewFlagSet("spbench", flag.ContinueOnError)
	declare(fs)
	var got string // VisitAll visits in name order
	fs.VisitAll(func(f *flag.Flag) { got += f.Name + "=" + f.DefValue + "\n" })
	if got != want {
		t.Errorf("flag surface drifted:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunInterruptedWritesNothing: a sweep cut short by an interrupt must
// not pass its DNF points off as a result — nothing rendered, no
// -metrics-out document, a non-zero exit.
func TestRunInterruptedWritesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	metrics := filepath.Join(t.TempDir(), "fig6.json")
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{"-exp", "fig6", "-scale", "0.01", "-metrics-out", metrics}, &stdout, &stderr)
	if code := cli.Exit("spbench", &stderr, err); code != 1 {
		t.Errorf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted sweep rendered figures:\n%s", stdout.String())
	}
	if _, err := os.Stat(metrics); !os.IsNotExist(err) {
		t.Errorf("interrupted sweep wrote %s (stat: %v)", metrics, err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := exit([]string{"-exp", "fig99"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "fig99") {
		t.Errorf("error does not name the bad id: %s", msg)
	}
	for _, id := range bench.ExperimentOrder {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list valid experiment %q: %s", id, msg)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected stdout: %s", stdout.String())
	}
}

// TestRunUnknownFormat: -format takes table or csv; anything else — the
// retired ASCII chart renderer's "chart" included — is a usage error naming
// it, reported before the sweep runs.
func TestRunUnknownFormat(t *testing.T) {
	for _, format := range []string{"xml", "chart"} {
		var stdout, stderr bytes.Buffer
		if code := exit([]string{"-exp", "fig6", "-scale", "0.01", "-format", format}, &stdout, &stderr); code != 2 {
			t.Fatalf("-format %s: exit code = %d, want 2; stderr: %s", format, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-format %s: unexpected stdout: %s", format, stdout.String())
		}
		if !strings.Contains(stderr.String(), format) {
			t.Errorf("-format %s: error does not name the bad format: %s", format, stderr.String())
		}
	}
}

func TestRunMetricsOutAndTrace(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "fig6.json")
	trace := filepath.Join(dir, "trace.jsonl")

	var stdout, stderr bytes.Buffer
	code := exit([]string{"-exp", "fig6", "-scale", "0.01", "-k", "10",
		"-metrics-out", metrics, "-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fig6") {
		t.Errorf("table output missing figure title:\n%s", stdout.String())
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.ValidateMetricsJSON(data); err != nil {
		t.Errorf("metrics document invalid: %v", err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Runs       []any  `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "fig6" {
		t.Errorf("experiment = %q, want fig6", doc.Experiment)
	}
	if len(doc.Runs) == 0 {
		t.Error("metrics document has no runs")
	}

	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sc := bufio.NewScanner(tf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", lines, err)
		}
		if _, ok := ev["type"]; !ok {
			t.Fatalf("trace line %d lacks a type: %s", lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 10 {
		t.Errorf("trace has %d events, want at least 10", lines)
	}

	// The written document must round-trip through -validate.
	stdout.Reset()
	stderr.Reset()
	if code := exit([]string{"-validate", metrics}, &stdout, &stderr); code != 0 {
		t.Fatalf("-validate exit code = %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "valid metrics document") {
		t.Errorf("-validate output: %s", stdout.String())
	}
}

func TestRunValidateRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schemaVersion": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := exit([]string{"-validate", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if stderr.Len() == 0 {
		t.Error("no error message for malformed document")
	}

	stdout.Reset()
	stderr.Reset()
	if code := exit([]string{"-validate", filepath.Join(dir, "missing.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit code = %d, want 1", code)
	}
}
