package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"

	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/mr"
)

const sampleCSV = `name,city,year,sales
laptop,Rome,2012,2000
laptop,Paris,2012,1500
printer,Rome,2013,300
laptop,Rome,2013,900
`

// cube runs one spcube invocation the way main does, minus the process exit. A
// nil stderr discards it and turns the stats line off.
func cube(stderr io.Writer, args ...string) error {
	if stderr == nil {
		stderr, args = io.Discard, append([]string{"-stats=false"}, args...)
	}
	return run(context.Background(), args, io.Discard, stderr)
}

// writeTemp writes content to a fresh file under dir and returns its path.
func writeTemp(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlagSurface pins spcube's flags and defaults against the literal
// captured from the commit before the shared flag groups existed: a flag,
// default or group membership that drifts fails here.
func TestFlagSurface(t *testing.T) {
	want := `agg=count
algo=sp-cube
backend=local
delta=
delta-delete=
faults=
in=
k=8
max-attempts=0
merge-fan-in=0
metrics-out=
minsup=0
o=
p=0
pprof=
rebuild-threshold=0
seed=1
spec-slack=0
spill-budget=-1
spill-codec=raw
spill-dir=
stats=true
task-timeout=0
trace=
worker-cmd=
`
	fs := flag.NewFlagSet("spcube", flag.ContinueOnError)
	declare(fs)
	var got string // VisitAll visits in name order
	fs.VisitAll(func(f *flag.Flag) { got += f.Name + "=" + f.DefValue + "\n" })
	if got != want {
		t.Errorf("flag surface drifted:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriterGolden pins the one cube writer's bytes on a d = 3 fixture
// against the literal the parent commit's plain mode produced, and requires
// delta mode — base plus batch giving the same final relation — to emit the
// same bytes (before the writers were merged its cuboid order differed).
func TestWriterGolden(t *testing.T) {
	const want = `a,b,c,sum
*,*,*,7
x,*,*,3
w,*,*,4
*,y,*,5
*,z,*,2
x,y,*,1
x,z,*,2
w,y,*,4
*,*,p,3
*,*,r,4
x,*,p,3
w,*,r,4
*,y,p,1
*,y,r,4
*,z,p,2
x,y,p,1
x,z,p,2
w,y,r,4
`
	requireWriterGolden(t, want, "a,b,c,m\nx,y,p,1\nx,z,p,2\nw,y,r,4\n", 2)
}

// TestWriterQuotingGolden pins the writer's CSV quoting against the literal
// the parent commit wrote for dimension values holding a comma, quotes, a
// leading space, `\.`, the empty string and a newline.
func TestWriterQuotingGolden(t *testing.T) {
	const want = `p,q,r,sum
*,*,*,10
"a,b",*,*,5
"say ""hi""",*,*,2
,*,*,3
*," lead",*,1
*,"\.",*,6
*,"line
break",*,3
"a,b"," lead",*,1
"a,b","\.",*,4
"say ""hi""","\.",*,2
,"line
break",*,3
*,*,x,4
*,*,y,6
"a,b",*,x,1
"a,b",*,y,4
"say ""hi""",*,y,2
,*,x,3
*," lead",x,1
*,"\.",y,6
*,"line
break",x,3
"a,b"," lead",x,1
"a,b","\.",y,4
"say ""hi""","\.",y,2
,"line
break",x,3
`
	requireWriterGolden(t, want, `p,q,r,m
"a,b", lead,x,1
"say ""hi""",\.,y,2
,"line
break",x,3
"a,b",\.,y,4
`, 2)
}

// requireWriterGolden runs plain mode over the input and delta mode over its
// first baseRows data rows plus the rest as the batch, and requires both to
// write want. Rows must not span lines before the split.
func requireWriterGolden(t *testing.T, want, input string, baseRows int) {
	t.Helper()
	lines := strings.SplitAfterN(input, "\n", baseRows+2)
	dir := t.TempDir()
	full := writeTemp(t, dir, "full.csv", input)
	base := writeTemp(t, dir, "base.csv", strings.Join(lines[:baseRows+1], ""))
	batch := writeTemp(t, dir, "batch.csv", lines[0]+lines[baseRows+1])
	for name, args := range map[string][]string{
		"plain": {"-in", full},
		"delta": {"-in", base, "-delta", batch},
	} {
		out := filepath.Join(dir, name+".out")
		if err := cube(nil, append(args, "-agg", "sum", "-o", out)...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s mode wrote:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	out := filepath.Join(dir, "out.csv")
	if err := cube(nil, "-in", in, "-o", out, "-agg", "sum", "-k", "3"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "name,city,year,sum" {
		t.Errorf("header: %q", lines[0])
	}
	// The full cube of these 4 rows has 20 c-groups (1+2+2+2+3+3+3+4
	// across the 8 cuboids).
	if len(lines)-1 != 20 {
		t.Errorf("got %d groups", len(lines)-1)
	}
	found := false
	for _, l := range lines[1:] {
		if l == "laptop,*,2012,3500" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing (laptop,*,2012)=3500 in output:\n%s", data)
	}
}

func TestRunAllAlgorithmsAndMinSup(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	for _, algo := range []string{"sp-cube", "naive", "mr-cube", "hive"} {
		if err := cube(nil, "-in", in, "-o", filepath.Join(dir, algo+".csv"), "-algo", algo, "-k", "2"); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	out := filepath.Join(dir, "iceberg.csv")
	if err := cube(nil, "-in", in, "-o", out, "-k", "2", "-minsup", "3"); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Only groups with >= 3 rows survive: (laptop,*,*), (*,Rome,*), (*,*,*).
	if len(lines)-1 != 3 {
		t.Errorf("iceberg output has %d groups, want 3:\n%s", len(lines)-1, data)
	}
}

// TestRunErrors: invocations the run must refuse. The exit status of each
// class of failure is pinned for all three binaries by TestCLIExitCodes in
// internal/integration.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	ok := writeTemp(t, dir, "ok.csv", sampleCSV)
	cases := map[string][]string{
		"missing input":          {"-in", filepath.Join(dir, "nope.csv")},
		"unknown aggregate":      {"-in", ok, "-agg", "median"},
		"unknown algorithm":      {"-in", ok, "-algo", "spark"},
		"non-numeric measure":    {"-in", writeTemp(t, dir, "bad.csv", "a,b,m\nx,y,notanumber\n")},
		"header only":            {"-in", writeTemp(t, dir, "empty.csv", "a,b,m\n")},
		"single column":          {"-in", writeTemp(t, dir, "one.csv", "m\n1\n")},
		"delta without -in":      {"-delta", ok},
		"unwritable -trace":      {"-in", ok, "-trace", filepath.Join(dir, "no", "t.jsonl")},
		"unwritable -metrics":    {"-in", ok, "-metrics-out", filepath.Join(dir, "no", "m.json")},
		"missing spill dir root": {"-in", ok, "-spill-budget", "0", "-spill-dir", filepath.Join(dir, "no")},
	}
	for name, args := range cases {
		if err := cube(nil, append(args, "-k", "2")...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunOutputDeviceFull: the cube writer's first write error is the run's
// error — exit status 1, the operating system's message on stderr — in plain
// and in -delta mode.
func TestRunOutputDeviceFull(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	for name, args := range map[string][]string{
		"plain": {"-in", in, "-o", "/dev/full"},
		"delta": {"-in", in, "-delta", in, "-o", "/dev/full"},
	} {
		var stderr strings.Builder
		err := cube(nil, append(args, "-k", "2")...)
		if status := cli.Exit("spcube", &stderr, err); status != 1 || !errors.Is(err, syscall.ENOSPC) ||
			!strings.Contains(stderr.String(), syscall.ENOSPC.Error()) {
			t.Errorf("%s: exit status %d, stderr %q, error %v; want 1 and %q", name, status, stderr.String(), err, syscall.ENOSPC.Error())
		}
	}
}

func TestRunTraceAndMetricsOut(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	trace := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	err := cube(nil, "-in", in, "-o", filepath.Join(dir, "out.csv"), "-k", "2", "-trace", trace, "-metrics-out", metrics)
	if err != nil {
		t.Fatal(err)
	}

	traceData, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(traceData)), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace has %d events, want at least round-start/task/round-end per round", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", i, err)
		}
		if _, ok := ev["type"].(string); !ok {
			t.Fatalf("trace line %d lacks a type: %s", i, line)
		}
	}

	metricsData, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(metricsData, &doc); err != nil {
		t.Fatalf("metrics file is not JSON: %v", err)
	}
	if v, ok := doc["schemaVersion"].(float64); !ok || int(v) != mr.MetricsSchemaVersion {
		t.Errorf("metrics schemaVersion = %v, want %d", doc["schemaVersion"], mr.MetricsSchemaVersion)
	}
	if rounds, ok := doc["rounds"].([]any); !ok || len(rounds) != 2 {
		t.Errorf("sp-cube metrics should have 2 rounds, got %v", doc["rounds"])
	}
}

// TestRunNodeCrashAndSpeculationStats drives the recovery machinery through
// the CLI: a node-crash plan must surface map re-executions in both the
// stats line and the metrics document without changing the cube, and a
// slow-task plan with -spec-slack must surface speculative attempts.
func TestRunNodeCrashAndSpeculationStats(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	clean := filepath.Join(dir, "clean.csv")
	if err := cube(nil, "-in", in, "-o", clean, "-k", "2"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		args    []string
		stats   string // substring the stats line must contain
		counter string // metrics-document counter that must be positive
	}{
		{"node crash", []string{"-faults", "*:node:1:node-crash"},
			"map re-executions", "mapReexecutions"},
		{"speculation", []string{"-faults", "*:map:*:slow@3", "-spec-slack", "0.0005"},
			"speculative attempts", "speculativeLaunched"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, metrics := filepath.Join(dir, tc.name+".csv"), filepath.Join(dir, tc.name+".json")
			var stderr strings.Builder
			if err := cube(&stderr, append(tc.args, "-in", in, "-o", out, "-k", "2", "-metrics-out", metrics)...); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stderr.String(), tc.stats) {
				t.Errorf("stats line %q lacks %q", stderr.String(), tc.stats)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("cube under %s differs from the fault-free run", tc.name)
			}
			metricsData, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(metricsData, &doc); err != nil {
				t.Fatal(err)
			}
			if v, _ := doc[tc.counter].(float64); v <= 0 {
				t.Errorf("metrics %s = %v, want > 0", tc.counter, doc[tc.counter])
			}
		})
	}
}

// sortedLines returns a CSV file's lines, header first and the body sorted:
// a from-scratch run and a maintained run assign dictionary codes in
// different first-seen orders, so their rows agree as a set.
func sortedLines(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// TestRunDeltaAppendAndDelete drives the incremental-maintenance batch mode
// end to end: the maintained cube emitted by `-delta`/`-delta-delete` must
// equal a from-scratch run over the edited relation, and the stats line must
// report the maintenance cycle.
func TestRunDeltaAppendAndDelete(t *testing.T) {
	dir := t.TempDir()
	base := writeTemp(t, dir, "base.csv", sampleCSV)
	deltaF := writeTemp(t, dir, "delta.csv", "name,city,year,sales\nlaptop,Berlin,2013,700\nprinter,Paris,2012,100\n")
	delF := writeTemp(t, dir, "del.csv", "name,city,year,sales\nprinter,Rome,2013,300\n")
	// The edited relation: base minus the deleted row plus the two appends.
	editedF := writeTemp(t, dir, "edited.csv", `name,city,year,sales
laptop,Rome,2012,2000
laptop,Paris,2012,1500
laptop,Rome,2013,900
laptop,Berlin,2013,700
printer,Paris,2012,100
`)

	for _, aggName := range []string{"count", "sum"} {
		wantOut := filepath.Join(dir, aggName+".want.csv")
		if err := cube(nil, "-in", editedF, "-o", wantOut, "-agg", aggName, "-k", "3"); err != nil {
			t.Fatal(err)
		}
		var stderr strings.Builder
		out := filepath.Join(dir, aggName+".csv")
		err := cube(&stderr, "-in", base, "-delta", deltaF, "-delta-delete", delF, "-o", out, "-agg", aggName, "-k", "3")
		if err != nil {
			t.Fatalf("%s: delta run: %v", aggName, err)
		}
		if got, want := sortedLines(t, out), sortedLines(t, wantOut); got != want {
			t.Errorf("%s: maintained cube\n%s\nwant\n%s", aggName, got, want)
		}
		st := stderr.String()
		if !strings.Contains(st, "cycle 1") || !strings.Contains(st, "drift") {
			t.Errorf("%s: stats line does not report the maintenance cycle: %q", aggName, st)
		}
		// sum supports deletes via inversion, so the batch must have gone
		// through the delta path, not a rebuild.
		if aggName == "sum" && !strings.Contains(st, "cycle 1 delta") {
			t.Errorf("sum: expected a delta-mode cycle, stats: %q", st)
		}
	}
}

// TestRunDeltaRebuildAndMetrics checks the forced-rebuild escape hatch and
// that a maintenance run's metrics document carries per-round maintenance
// annotations.
func TestRunDeltaRebuildAndMetrics(t *testing.T) {
	dir := t.TempDir()
	base := writeTemp(t, dir, "base.csv", sampleCSV)
	deltaF := writeTemp(t, dir, "delta.csv", "name,city,year,sales\nlaptop,Oslo,2014,50\n")
	metrics := filepath.Join(dir, "metrics.json")

	var stderr strings.Builder
	err := cube(&stderr, "-in", base, "-delta", deltaF, "-k", "2", "-rebuild-threshold", "-1",
		"-metrics-out", metrics, "-o", filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if st := stderr.String(); !strings.Contains(st, "rebuild") || !strings.Contains(st, "forced") {
		t.Errorf("stats line does not report the forced rebuild: %q", st)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if v, ok := doc["schemaVersion"].(float64); !ok || int(v) != mr.MetricsSchemaVersion {
		t.Errorf("maintenance metrics schemaVersion = %v, want %d", doc["schemaVersion"], mr.MetricsSchemaVersion)
	}
	rounds, _ := doc["rounds"].([]any)
	foundMaint := false
	for _, r := range rounds {
		if m, ok := r.(map[string]any); ok && m["maint"] != nil {
			foundMaint = true
		}
	}
	if !foundMaint {
		t.Errorf("no round carries a maint annotation:\n%s", data)
	}
}

// TestRunDeltaErrors exercises the batch-mode input validation.
func TestRunDeltaErrors(t *testing.T) {
	dir := t.TempDir()
	base := writeTemp(t, dir, "base.csv", sampleCSV)
	cases := []struct {
		name, flag, batch, want string
	}{
		{"mismatched header", "-delta", "name,town,year,sales\na,b,2000,1\n", "town"},
		{"wrong column count", "-delta", "name,sales\na,1\n", "columns"},
		{"bad measure", "-delta", "name,city,year,sales\na,b,2000,many\n", "integer"},
		{"unknown delete", "-delta-delete", "name,city,year,sales\ntablet,Rome,2012,1\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := cube(nil, "-in", base, "-k", "2", c.flag, writeTemp(t, dir, "batch.csv", c.batch))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestSpillBudgetEndToEnd: a forced-spill run must produce the same cube as
// the in-memory run and leave the spill directory empty.
func TestSpillBudgetEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	memOut, spillOut := filepath.Join(dir, "mem.csv"), filepath.Join(dir, "spill.csv")
	if err := cube(nil, "-in", in, "-o", memOut, "-agg", "sum", "-k", "3"); err != nil {
		t.Fatal(err)
	}
	spillDir := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cube(nil, "-in", in, "-o", spillOut, "-agg", "sum", "-k", "3", "-spill-budget", "0", "-spill-dir", spillDir); err != nil {
		t.Fatal(err)
	}
	mem, _ := os.ReadFile(memOut)
	spill, _ := os.ReadFile(spillOut)
	if string(mem) != string(spill) {
		t.Errorf("spilled cube differs from in-memory cube:\n%s\nvs\n%s", spill, mem)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir not empty after run: %v", ents)
	}
}

// TestFailedRunLeavesNoSpillFiles: a run that dies mid-computation (a
// permanent injected fault) must still remove every spill temp file — the
// cleanup is deferred inside run, not skipped by the error exit.
func TestFailedRunLeavesNoSpillFiles(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	spillDir := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	err := cube(nil, "-in", in, "-o", filepath.Join(dir, "out.csv"), "-k", "2",
		"-spill-budget", "0", "-spill-dir", spillDir, "-faults", "*:map:*:crash:0:*", "-max-attempts", "1")
	if err == nil {
		t.Fatal("expected the permanently faulted run to fail")
	}
	ents, rerr := os.ReadDir(spillDir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ents) != 0 {
		t.Errorf("failed run left spill files: %v", ents)
	}
}
