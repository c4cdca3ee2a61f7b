package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

const fixtureCSV = `name,city,sales
laptop,Rome,3
laptop,Oslo,1
phone,Rome,2
phone,Rome,5
`

func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sales.csv")
	if err := os.WriteFile(path, []byte(fixtureCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// exit runs one invocation the way main does and returns its exit status.
func exit(ctx context.Context, args []string, stderr *bytes.Buffer) int {
	return cli.Exit("spserve", stderr, run(ctx, args, stderr))
}

// TestFlagSurface pins spserve's flags and defaults against the literal
// captured from the commit before the shared flag groups existed, minus
// -max-attempts, whose value became an engine constant.
func TestFlagSurface(t *testing.T) {
	want := `addr=localhost:8080
addr-file=
agg=count
algo=sp-cube
faults=
in=
k=8
metrics-out=
minsup=0
p=0
pprof=
seed=1
trace=
`
	fs := flag.NewFlagSet("spserve", flag.ContinueOnError)
	declare(fs)
	var got string // VisitAll visits in name order
	fs.VisitAll(func(f *flag.Flag) { got += f.Name + "=" + f.DefValue + "\n" })
	if got != want {
		t.Errorf("flag surface drifted:\n%s\nwant:\n%s", got, want)
	}
}

// TestInterruptedBuildNeverListens: an interrupt that arrives before (or
// during) the initial build stops the cube job at its next attempt
// boundary — the listener is never opened, no address file is written and
// the exit status is non-zero.
func TestInterruptedBuildNeverListens(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	addrFile := filepath.Join(t.TempDir(), "addr")
	var stderr bytes.Buffer
	code := exit(ctx, []string{"-in", writeFixture(t), "-addr", "127.0.0.1:0", "-addr-file", addrFile}, &stderr)
	if code != 1 {
		t.Errorf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "serving") {
		t.Errorf("interrupted build announced a server: %s", stderr.String())
	}
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Errorf("interrupted build wrote an address file (stat: %v)", err)
	}
}

// startServer runs the full CLI against a free port and returns the base URL
// plus a shutdown function that delivers the interrupt and waits for exit.
func startServer(t *testing.T, extraArgs ...string) (string, func() int) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{
		"-in", writeFixture(t),
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
	}, extraArgs...)
	ctx, interrupt := context.WithCancel(context.Background())
	t.Cleanup(interrupt)
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- exit(ctx, args, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with %d: %s", code, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if addr == "" {
		t.Fatalf("server never wrote its address; stderr: %s", stderr.String())
	}
	return "http://" + addr, func() int {
		interrupt()
		select {
		case code := <-done:
			if code != 0 {
				t.Errorf("exit code %d; stderr: %s", code, stderr.String())
			}
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("server did not stop")
			return -1
		}
	}
}

// TestStartupLineReportsStages pins the stderr line that answers "where did
// start-up go?": the total, then the stages it is made of — the cube job, the
// index over its output, the served store — in seconds.
func TestStartupLineReportsStages(t *testing.T) {
	ctx, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	addrFile := filepath.Join(t.TempDir(), "addr")
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- exit(ctx, []string{"-in", writeFixture(t), "-addr", "127.0.0.1:0", "-addr-file", addrFile}, &stderr)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its address")
		}
	}
	interrupt()
	if code := <-done; code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
	}
	secs := `\d+\.\d\ds`
	want := regexp.MustCompile(`(?m)^spserve: sp-cube cubed 4 rows into 8 groups \(4 cuboids\) in ` + secs +
		` \(job ` + secs + `, index ` + secs + `, store ` + secs + `\)$`)
	if !want.MatchString(stderr.String()) {
		t.Errorf("stderr does not report the start-up stages as %s:\n%s", want, stderr.String())
	}
}

func TestServeEndToEnd(t *testing.T) {
	base, shutdown := startServer(t)
	defer shutdown()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// count aggregate: 2 laptop rows.
	resp, err = http.Get(base + "/v1/query?op=point&group=laptop,*")
	if err != nil {
		t.Fatal(err)
	}
	var ans struct {
		Found bool    `json:"found"`
		Value float64 `json:"value"`
		Error string  `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ans)
	resp.Body.Close()
	if err != nil || !ans.Found || ans.Value != 2 || ans.Error != "" {
		t.Fatalf("point query: %+v, %v", ans, err)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats["tool"] != "spserve" {
		t.Fatalf("stats: %v, %v", stats, err)
	}
}

func TestServeSumAggregateAndMetricsOut(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.jsonl")
	base, shutdown := startServer(t, "-agg", "sum", "-algo", "naive",
		"-metrics-out", metrics, "-trace", trace)
	defer shutdown()

	// sum aggregate: laptop sales 3+1.
	resp, err := http.Get(base + "/v1/query?op=point&group=laptop,*")
	if err != nil {
		t.Fatal(err)
	}
	var ans struct {
		Value float64 `json:"value"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ans)
	resp.Body.Close()
	if err != nil || ans.Value != 4 {
		t.Fatalf("sum query: %+v, %v", ans, err)
	}

	for _, f := range []string{metrics, trace} {
		if data, err := os.ReadFile(f); err != nil || len(data) == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
	var doc map[string]any
	data, _ := os.ReadFile(metrics)
	if err := json.Unmarshal(data, &doc); err != nil || doc["schemaVersion"] == nil {
		t.Errorf("metrics file is not a versioned JSON document: %v", err)
	}
	// The start-up build is one naive job, of one round, under sum as under
	// count: its records carry the counts.
	rounds, _ := doc["rounds"].([]any)
	if len(rounds) != 1 || rounds[0].(map[string]any)["job"] != "naive-cube" {
		t.Errorf("metrics document holds %d rounds, want the one of a naive job", len(rounds))
	}
}

// postIngest sends one ingest batch and decodes the response.
func postIngest(t *testing.T, base string, req IngestRequest) (IngestResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// pointValue queries one point group and returns (value, found).
func pointValue(t *testing.T, base, group string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/query?op=point&group=" + group)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ans struct {
		Found bool    `json:"found"`
		Value float64 `json:"value"`
		Error string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil || ans.Error != "" {
		t.Fatalf("point %s: %+v, %v", group, ans, err)
	}
	return ans.Value, ans.Found
}

func TestServeIngestEndToEnd(t *testing.T) {
	base, shutdown := startServer(t)
	defer shutdown()

	if v, ok := pointValue(t, base, "laptop,*"); !ok || v != 2 {
		t.Fatalf("initial laptop count = %v,%v want 2", v, ok)
	}

	// Append two laptop rows (one in a brand-new city) and delete one
	// existing phone row: counts must move on the very next query.
	res, code := postIngest(t, base, IngestRequest{
		Append: []IngestRow{
			{Dims: []string{"laptop", "Rome"}, Measure: 9},
			{Dims: []string{"laptop", "Berlin"}, Measure: 4},
		},
		Delete: []IngestRow{{Dims: []string{"phone", "Rome"}, Measure: 2}},
	})
	if code != http.StatusOK || res.Error != "" {
		t.Fatalf("ingest: %d %+v", code, res)
	}
	if res.Round != 1 || res.Mode == "" || res.Appended != 2 || res.Deleted != 1 {
		t.Fatalf("ingest response: %+v", res)
	}
	if v, ok := pointValue(t, base, "laptop,*"); !ok || v != 4 {
		t.Fatalf("post-ingest laptop count = %v,%v want 4", v, ok)
	}
	if v, ok := pointValue(t, base, "phone,*"); !ok || v != 1 {
		t.Fatalf("post-ingest phone count = %v,%v want 1", v, ok)
	}
	if v, ok := pointValue(t, base, "laptop,Berlin"); !ok || v != 1 {
		t.Fatalf("new-city count = %v,%v want 1", v, ok)
	}

	// The stats document reports the swap.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Swaps int64 `json:"swaps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Swaps != 1 {
		t.Fatalf("stats swaps = %d, %v (want 1)", stats.Swaps, err)
	}

	// Bad batches are rejected without disturbing the served cube: a
	// delete of a never-seen row, an empty batch, a GET.
	if res, code := postIngest(t, base, IngestRequest{
		Delete: []IngestRow{{Dims: []string{"tablet", "Rome"}, Measure: 1}},
	}); code != http.StatusBadRequest || res.Error == "" {
		t.Fatalf("unknown delete accepted: %d %+v", code, res)
	}
	if res, code := postIngest(t, base, IngestRequest{}); code != http.StatusBadRequest || res.Error == "" {
		t.Fatalf("empty batch accepted: %d %+v", code, res)
	}
	if resp, err := http.Get(base + "/v1/ingest"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET ingest: %d", resp.StatusCode)
		}
	}
	if v, ok := pointValue(t, base, "laptop,*"); !ok || v != 4 {
		t.Fatalf("rejected batches disturbed the cube: laptop = %v,%v", v, ok)
	}
}

// ingestFixture is the serving stack behind /v1/ingest over the fixture rows,
// without the listener.
func ingestFixture(t testing.TB, ctx context.Context) (*serve.Batched, *delta.Maintainer) {
	t.Helper()
	rel, err := relation.ReadCSV(strings.NewReader(fixtureCSV))
	if err != nil {
		t.Fatal(err)
	}
	maint, err := delta.New(rel, delta.Config{Workers: 2, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	store, err := serve.Build(maint.Relation(), maint.Result())
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(store, serve.Config{})
	t.Cleanup(func() { svc.Close() })
	return svc, maint
}

// TestIngestBodyLimit: a body over maxIngestBody is answered 413 in the
// handler's JSON error shape, with no maintenance cycle run and the served
// snapshot still the one that was serving.
func TestIngestBodyLimit(t *testing.T) {
	svc, maint := ingestFixture(t, context.Background())
	store := svc.Store()

	body := `{"append":[{"dims":["` + strings.Repeat("x", maxIngestBody) + `","Rome"],"measure":1}]}`
	w := httptest.NewRecorder()
	ingestHandler(svc, maint).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
	var resp IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body.String(), err)
	}
	if w.Code != http.StatusRequestEntityTooLarge || resp.Error == "" {
		t.Fatalf("oversized ingest: %d %+v, want 413 with error", w.Code, resp)
	}
	if svc.Store() != store || maint.Version() != 0 {
		t.Fatalf("oversized ingest was applied: version %d, store swapped %v", maint.Version(), svc.Store() != store)
	}
}

// TestIngestServerFailureIs5xx: a valid batch whose cycle fails on the
// server's side — here its maintenance context was cancelled — is answered
// 5xx, not 400, with no cycle recorded and the served snapshot untouched.
func TestIngestServerFailureIs5xx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	svc, maint := ingestFixture(t, ctx)
	store := svc.Store()
	cancel()

	body := `{"append":[{"dims":["tablet","Rome"],"measure":1}]}`
	w := httptest.NewRecorder()
	ingestHandler(svc, maint).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
	var resp IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body.String(), err)
	}
	if w.Code < 500 || resp.Error == "" {
		t.Fatalf("ingest under a cancelled context: %d %+v, want 5xx with error", w.Code, resp)
	}
	if svc.Store() != store || maint.Version() != 0 {
		t.Fatalf("failed ingest was applied: version %d, store swapped %v", maint.Version(), svc.Store() != store)
	}
}

func TestServeIngestRebuildPath(t *testing.T) {
	// Deleting a group's minimum leaves a runner-up no state records, so
	// the cycle recomputes the groups the delete touches (the test is named
	// for the rebuild this case once took); the patch carries the runner-up.
	base, shutdown := startServer(t, "-agg", "min")
	defer shutdown()
	res, code := postIngest(t, base, IngestRequest{
		Append: []IngestRow{{Dims: []string{"phone", "Oslo"}, Measure: 7}},
		Delete: []IngestRow{{Dims: []string{"phone", "Rome"}, Measure: 2}},
	})
	if code != http.StatusOK || res.Mode != "delta" || res.Reason != "recompute" {
		t.Fatalf("ingest: %d %+v (want a recompute on deletes)", code, res)
	}
	for group, want := range map[string]float64{"phone,Rome": 5, "phone,Oslo": 7, "phone,*": 5} {
		if v, ok := pointValue(t, base, group); !ok || v != want {
			t.Fatalf("post-recompute min of %s = %v,%v want %v", group, v, ok, want)
		}
	}
}

func TestServeAddrConflict(t *testing.T) {
	// Second server on the same resolved port must fail cleanly.
	base, shutdown := startServer(t)
	defer shutdown()
	addr := strings.TrimPrefix(base, "http://")
	var stderr bytes.Buffer
	if code := exit(context.Background(), []string{"-in", writeFixture(t), "-addr", addr}, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), addr) && !strings.Contains(stderr.String(), "address") {
		t.Errorf("stderr does not explain the bind failure: %s", stderr.String())
	}
}

// FuzzIngestRequest: whatever bytes arrive as a POST /v1/ingest body, the
// handler answers 200 for a batch it applied — and then serves the groups it
// reports — or a 4xx carrying an error message; never a panic, never a 5xx.
// Accepted batches accumulate, so later inputs meet a relation earlier ones
// grew, shrank or emptied.
func FuzzIngestRequest(f *testing.F) {
	svc, maint := ingestFixture(f, context.Background())
	h := ingestHandler(svc, maint)
	for _, seed := range []string{
		`{"append":[{"dims":["tablet","Oslo"],"measure":4}]}`,
		`{"delete":[{"dims":["laptop","Oslo"],"measure":1}]}`,
		`{"append":[{"dims":["phone","Rome"],"measure":-9}],"delete":[{"dims":["phone","Rome"],"measure":2}]}`,
		`{"delete":[{"dims":["nobody","Rome"],"measure":1}]}`,
		`{"append":[{"dims":["one"],"measure":1}]}`,
		`{"append":[{"dims":["a","b"],"measure":1e40}]}`,
		`{"append":[{"dims":null}]}`,
		`{"append":{}}`,
		`{}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		var resp IngestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: status %d, answer %q is not an IngestResponse: %v", body, w.Code, w.Body.String(), err)
		}
		switch {
		case w.Code == http.StatusOK:
			if resp.Error != "" || resp.Round != maint.Version() || resp.Groups != svc.Store().Groups() {
				t.Fatalf("body %q: 200 with %+v at version %d serving %d groups", body, resp, maint.Version(), svc.Store().Groups())
			}
		case w.Code >= 400 && w.Code < 500:
			if resp.Error == "" {
				t.Fatalf("body %q: status %d without an error message", body, w.Code)
			}
		default:
			t.Fatalf("body %q: status %d (%s)", body, w.Code, resp.Error)
		}
	})
}
