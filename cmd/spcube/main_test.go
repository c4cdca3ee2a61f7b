package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"

	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/mr/exec"
)

const sampleCSV = `name,city,year,sales
laptop,Rome,2012,2000
laptop,Paris,2012,1500
printer,Rome,2013,300
laptop,Rome,2013,900
`

// spcube runs one invocation the way main does, minus the process exit. A
// nil stderr discards it and turns the stats line off.
func spcube(stderr io.Writer, args ...string) error {
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
// captured from the commit before the shared flag groups existed, minus
// -max-attempts and -merge-fan-in, whose values became engine constants: a
// flag, default or group membership that drifts fails here.
func TestFlagSurface(t *testing.T) {
	want := `agg=count
algo=sp-cube
backend=local
delta=
delta-delete=
faults=
in=
k=8
metrics-out=
minsup=0
o=
p=0
pprof=
seed=1
spill-budget=-1
spill-codec=raw
spill-dir=
stats=true
trace=
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
		if err := spcube(nil, append(args, "-agg", "sum", "-o", out)...); err != nil {
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
	if err := spcube(nil, "-in", in, "-o", out, "-agg", "sum", "-k", "3"); err != nil {
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
		if err := spcube(nil, "-in", in, "-o", filepath.Join(dir, algo+".csv"), "-algo", algo, "-k", "2"); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	out := filepath.Join(dir, "iceberg.csv")
	if err := spcube(nil, "-in", in, "-o", out, "-k", "2", "-minsup", "3"); err != nil {
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
		if err := spcube(nil, append(args, "-k", "2")...); err == nil {
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
		err := spcube(nil, append(args, "-k", "2")...)
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
	err := spcube(nil, "-in", in, "-o", filepath.Join(dir, "out.csv"), "-k", "2", "-trace", trace, "-metrics-out", metrics)
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
// stats line and the metrics document without changing the cube. Its
// speculation leg went with speculative execution; the table keeps the
// remaining leg under its original subtest name.
func TestRunNodeCrashAndSpeculationStats(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	clean := filepath.Join(dir, "clean.csv")
	if err := spcube(nil, "-in", in, "-o", clean, "-k", "2"); err != nil {
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, metrics := filepath.Join(dir, tc.name+".csv"), filepath.Join(dir, tc.name+".json")
			var stderr strings.Builder
			if err := spcube(&stderr, append(tc.args, "-in", in, "-o", out, "-k", "2", "-metrics-out", metrics)...); err != nil {
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
		if err := spcube(nil, "-in", editedF, "-o", wantOut, "-agg", aggName, "-k", "3"); err != nil {
			t.Fatal(err)
		}
		var stderr strings.Builder
		out := filepath.Join(dir, aggName+".csv")
		err := spcube(&stderr, "-in", base, "-delta", deltaF, "-delta-delete", delF, "-o", out, "-agg", aggName, "-k", "3")
		if err != nil {
			t.Fatalf("%s: delta run: %v", aggName, err)
		}
		if got, want := sortedLines(t, out), sortedLines(t, wantOut); got != want {
			t.Errorf("%s: maintained cube\n%s\nwant\n%s", aggName, got, want)
		}
		// count and sum take deletes out through their inverses, so the
		// batch must have merged, with no recompute round.
		if st := stderr.String(); !strings.Contains(st, "cycle 1 delta (mergeable)") {
			t.Errorf("%s: stats line does not report a delta cycle: %q", aggName, st)
		}
	}
}

// TestRunDeltaRebuildAndMetrics checks the recompute round a delete under
// max takes — deleting a group's maximum leaves a runner-up no state records
// (the test is named for the rebuild this case once took) — and that a
// maintenance run's metrics document carries per-round maintenance
// annotations.
func TestRunDeltaRebuildAndMetrics(t *testing.T) {
	dir := t.TempDir()
	base := writeTemp(t, dir, "base.csv", sampleCSV)
	delF := writeTemp(t, dir, "del.csv", "name,city,year,sales\nlaptop,Rome,2012,2000\n")
	editedF := writeTemp(t, dir, "edited.csv", "name,city,year,sales\nlaptop,Paris,2012,1500\nprinter,Rome,2013,300\nlaptop,Rome,2013,900\n")
	metrics := filepath.Join(dir, "metrics.json")

	var stderr strings.Builder
	out, wantOut := filepath.Join(dir, "out.csv"), filepath.Join(dir, "want.csv")
	err := spcube(&stderr, "-in", base, "-delta-delete", delF, "-agg", "max", "-k", "2",
		"-metrics-out", metrics, "-o", out)
	if err != nil {
		t.Fatal(err)
	}
	if st := stderr.String(); !strings.Contains(st, "cycle 1 delta (recompute)") || !strings.Contains(st, " changed groups") {
		t.Errorf("stats line does not report a recompute on deletes: %q", st)
	}
	if err := spcube(nil, "-in", editedF, "-agg", "max", "-k", "2", "-o", wantOut); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedLines(t, out), sortedLines(t, wantOut); got != want {
		t.Errorf("maintained cube\n%s\nwant\n%s", got, want)
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
	found := false
	for _, r := range rounds {
		if m, ok := r.(map[string]any); ok {
			if maint, ok := m["maint"].(map[string]any); ok && m["job"] == "maint-recompute" && maint["mode"] == "delta" && maint["reason"] == "recompute" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no recompute round carries the cycle's delta/recompute maint annotation:\n%s", data)
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
			err := spcube(nil, "-in", base, "-k", "2", c.flag, writeTemp(t, dir, "batch.csv", c.batch))
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
	if err := spcube(nil, "-in", in, "-o", memOut, "-agg", "sum", "-k", "3"); err != nil {
		t.Fatal(err)
	}
	spillDir := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := spcube(nil, "-in", in, "-o", spillOut, "-agg", "sum", "-k", "3", "-spill-budget", "0", "-spill-dir", spillDir); err != nil {
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
	err := spcube(nil, "-in", in, "-o", filepath.Join(dir, "out.csv"), "-k", "2",
		"-spill-budget", "0", "-spill-dir", spillDir, "-faults", "*:map:*:crash:0:*")
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

// TestFailedRunWritesMetrics: every algorithm's run that fails on a
// permanent fault exits 1 without writing -o, and still writes its
// -metrics-out document, holding the rounds that ran with the failed one
// last.
func TestFailedRunWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	in := writeTemp(t, dir, "in.csv", sampleCSV)
	for _, algo := range []string{"sp-cube", "naive", "mr-cube", "hive", "pipesort"} {
		out, metrics := filepath.Join(dir, algo+".csv"), filepath.Join(dir, algo+".json")
		err := spcube(nil, "-in", in, "-o", out, "-metrics-out", metrics, "-algo", algo, "-k", "2",
			"-faults", "*:reduce:*:crash:0:*")
		if code := cli.Exit("spcube", io.Discard, err); code != 1 {
			t.Errorf("%s: exit %d (%v), want 1", algo, code, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: the failed run wrote -o (stat: %v)", algo, err)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Errorf("%s: no metrics document: %v", algo, err)
			continue
		}
		var doc struct {
			Rounds []struct {
				Job    string `json:"job"`
				Failed bool   `json:"failed"`
			} `json:"rounds"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if n := len(doc.Rounds); n == 0 || !doc.Rounds[n-1].Failed {
			t.Errorf("%s: rounds %+v, want the failed round last", algo, doc.Rounds)
		}
	}
}

// TestMain lets the test binary serve as its own proc-backend workers, as the
// spcube binary does.
func TestMain(m *testing.M) {
	exec.MaybeWorkerMain()
	os.Exit(m.Run())
}

// TestProcBackendMatchesLocal: -backend proc writes the local backend's cube
// to stdout, its -metrics-out document once volatile keys are stripped, and
// its -trace once times are masked — fault free, and when a node crash kills
// a real worker process. Pipesort's five rounds on four dimensions crash
// node 1 in every round, so its worker must be respawned each time.
func TestProcBackendMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	small := writeTemp(t, dir, "in.csv", sampleCSV)
	wide := filepath.Join(dir, "wide.csv")
	writeGenerated(t, wide, "uniform", 2000, 4)
	for _, leg := range []struct{ in, algo string }{{small, "sp-cube"}, {wide, "pipesort"}} {
		for _, faults := range []string{"", "*:node:1:node-crash"} {
			label := fmt.Sprintf("-algo %s -faults %q", leg.algo, faults)
			var outs, docs, traces [2]string
			for i, backend := range []string{"local", "proc"} {
				metrics := filepath.Join(dir, backend+".json")
				trace := filepath.Join(dir, backend+".jsonl")
				var stdout strings.Builder
				args := []string{"-stats=false", "-in", leg.in, "-algo", leg.algo, "-k", "3", "-backend", backend,
					"-faults", faults, "-metrics-out", metrics, "-trace", trace}
				if err := run(context.Background(), args, &stdout, io.Discard); err != nil {
					t.Fatalf("%s -backend %s: %v", label, backend, err)
				}
				data, err := os.ReadFile(metrics)
				if err != nil {
					t.Fatal(err)
				}
				if data, err = mr.StripVolatile(data); err != nil {
					t.Fatal(err)
				}
				outs[i], docs[i], traces[i] = stdout.String(), string(data), maskedTrace(t, trace)
			}
			if outs[0] == "" || outs[1] != outs[0] {
				t.Errorf("%s: proc wrote\n%s\nlocal wrote\n%s", label, outs[1], outs[0])
			}
			if docs[1] != docs[0] {
				t.Errorf("%s: metrics differ once volatile keys are stripped:\nproc:  %s\nlocal: %s", label, docs[1], docs[0])
			}
			if traces[1] != traces[0] {
				t.Errorf("%s: traces differ once times are masked:\nproc:\n%s\nlocal:\n%s", label, traces[1], traces[0])
			}
			var doc map[string]any
			if err := json.Unmarshal([]byte(docs[0]), &doc); err != nil {
				t.Fatal(err)
			}
			if v, _ := doc["mapReexecutions"].(float64); (v > 0) != (faults != "") {
				t.Errorf("%s: %v map re-executions", label, v)
			}
		}
	}
}

// maskedTrace reads a -trace file and blanks every event's time, the one
// field outside the determinism contract.
func maskedTrace(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`"time":"[^"]*"`).ReplaceAllString(string(data), `"time":""`)
}
