package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// retailFixture serves the paper's running example: a (name, city, year)
// sales relation with a string dictionary.
func retailFixture(t testing.TB) (*Batched, *Store, *Counters, *cube.Result) {
	t.Helper()
	rel := relationFromRows(t, [][]string{
		{"laptop", "Rome", "2012"},
		{"laptop", "Rome", "2012"},
		{"laptop", "Oslo", "2012"},
		{"phone", "Rome", "2012"},
		{"phone", "Rome", "2013"},
		{"tablet", "Oslo", "2013"},
	})
	res, _, err := cubetest.RunAndCollect(cubetest.NewEngine(2), naive.Compute, rel, cube.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(rel, res)
	if err != nil {
		t.Fatal(err)
	}
	m := &Counters{}
	svc := NewService(st, Config{BatchWindow: 100 * time.Microsecond, Counters: m})
	t.Cleanup(func() { svc.Close() })
	return svc, st, m, cube.Brute(rel, agg.Count)
}

func relationFromRows(t testing.TB, rows [][]string) *relation.Relation {
	t.Helper()
	rel := relation.New([]string{"name", "city", "year"}, "sales")
	for _, r := range rows {
		rel.AppendStrings(r, 1)
	}
	return rel
}

func doReq(t *testing.T, h http.Handler, method, target, body string) (int, QueryResponse) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, target, w.Body.String(), err)
	}
	return w.Code, resp
}

func TestHTTPPointQuery(t *testing.T) {
	svc, st, _, brute := retailFixture(t)
	h := NewHandler(svc, st, nil)

	// GET spelling. (laptop, *, 2012) groups name and year: mask 0b101.
	code, resp := doReq(t, h, http.MethodGet, "/v1/query?op=point&group=laptop,*,2012", "")
	if code != http.StatusOK || !resp.Found || resp.Value != 3 {
		t.Fatalf("GET point: %d %+v (want found value 3)", code, resp)
	}
	// POST spelling, default op is point.
	code, resp = doReq(t, h, http.MethodPost, "/v1/query", `{"group":["phone","Rome","*"]}`)
	want, _ := brute.Lookup(0b011, []relation.Value{1, 0, 0})
	if code != http.StatusOK || !resp.Found || resp.Value != want {
		t.Fatalf("POST point: %d %+v (want %v)", code, resp, want)
	}
	// A dictionary string the relation never saw: empty 200, not an error.
	code, resp = doReq(t, h, http.MethodGet, "/v1/query?op=point&group=mainframe,*,2012", "")
	if code != http.StatusOK || resp.Found || resp.Error != "" {
		t.Fatalf("unknown value: %d %+v", code, resp)
	}
}

func TestHTTPSliceRollupTopK(t *testing.T) {
	svc, st, _, _ := retailFixture(t)
	h := NewHandler(svc, st, nil)

	code, resp := doReq(t, h, http.MethodPost, "/v1/query", `{"op":"slice","group":["laptop","?","*"]}`)
	if code != http.StatusOK || len(resp.Groups) != 2 {
		t.Fatalf("slice: %d %+v (want laptop's 2 cities)", code, resp)
	}
	for _, g := range resp.Groups {
		if g.Group[0] != "laptop" || g.Group[2] != "*" {
			t.Fatalf("slice group rendered %v", g.Group)
		}
	}
	if resp.Groups[0].Group[1] != "Oslo" && resp.Groups[0].Group[1] != "Rome" {
		t.Fatalf("slice city %q not a dictionary string", resp.Groups[0].Group[1])
	}

	code, resp = doReq(t, h, http.MethodGet, "/v1/query?op=rollup&group=laptop,Rome,2012", "")
	if code != http.StatusOK || len(resp.Groups) != 4 {
		t.Fatalf("rollup: %d %+v (want 4 chain steps)", code, resp)
	}
	if last := resp.Groups[len(resp.Groups)-1]; last.Value != 6 || last.Group[0] != "*" {
		t.Fatalf("rollup apex %+v, want (*,*,*) = 6 rows", last)
	}

	code, resp = doReq(t, h, http.MethodGet, "/v1/query?op=topk&group=%3F,*,*&k=2", "")
	if code != http.StatusOK || len(resp.Groups) != 2 {
		t.Fatalf("topk: %d %+v", code, resp)
	}
	if resp.Groups[0].Group[0] != "laptop" || resp.Groups[0].Value != 3 {
		t.Fatalf("topk leader %+v, want laptop=3", resp.Groups[0])
	}
}

// swapBeforeQuery plays a maintenance swap landing between a request's
// parsing and its query: the service answers from the new snapshot.
type swapBeforeQuery struct {
	*Batched
	next *Store
}

func (s swapBeforeQuery) Query(q Query) (Result, error) {
	s.Swap(s.next)
	return s.Batched.Query(q)
}

// TestHTTPRendersWithTheSnapshotThatAnswered: an answer computed on a newer
// snapshot can hold codes minted after the request arrived; rendering it
// with the request-time dictionary printed them as bare code numbers, which
// on integer-valued data are indistinguishable from real values.
func TestHTTPRendersWithTheSnapshotThatAnswered(t *testing.T) {
	svc, st, _, _ := retailFixture(t)
	dict := st.dict.Clone()
	watch := dict.Encode(0, "watch")
	p := NewPatch()
	if err := p.Set(relation.GroupKey(0b001, []relation.Value{watch, 0, 0}), 1); err != nil {
		t.Fatal(err)
	}
	next, err := st.ApplyPatch(p, dict)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(swapBeforeQuery{svc, next}, svc, nil)
	code, resp := doReq(t, h, http.MethodGet, "/v1/query?op=slice&group=?,*,*", "")
	if code != http.StatusOK || len(resp.Groups) != 4 {
		t.Fatalf("slice: %d %+v (want 4 names)", code, resp)
	}
	var names []string
	for _, g := range resp.Groups {
		names = append(names, g.Group[0])
	}
	if want := []string{"laptop", "phone", "tablet", "watch"}; !reflect.DeepEqual(names, want) {
		t.Errorf("names rendered %v, want %v", names, want)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	svc, st, _, _ := retailFixture(t)
	h := NewHandler(svc, st, nil)
	cases := []struct {
		name, method, target, body string
		code                       int
	}{
		{"bad op", http.MethodGet, "/v1/query?op=dice&group=*,*,*", "", 400},
		{"wrong arity", http.MethodGet, "/v1/query?op=point&group=*,*", "", 400},
		{"? in point", http.MethodGet, "/v1/query?op=point&group=%3F,*,*", "", 400},
		{"value after ?", http.MethodGet, "/v1/query?op=slice&group=%3F,Rome,*", "", 400},
		{"value in topk", http.MethodGet, "/v1/query?op=topk&group=laptop,%3F,*", "", 400},
		{"bad k", http.MethodGet, "/v1/query?op=topk&group=%3F,*,*&k=two", "", 400},
		{"bad body", http.MethodPost, "/v1/query", `{"op":`, 400},
		{"bad method", http.MethodPut, "/v1/query", `{}`, 400},
		{"oversized body", http.MethodPost, "/v1/query", `{"op":"` + strings.Repeat("x", maxQueryBody) + `"}`, 413},
	}
	for _, c := range cases {
		code, resp := doReq(t, h, c.method, c.target, c.body)
		if code != c.code || resp.Error == "" {
			t.Errorf("%s: %d %+v, want %d with error", c.name, code, resp, c.code)
		}
	}
	if svc.Store() != st {
		t.Error("a rejected request swapped the served store")
	}
}

func TestHTTPSchemaStatsHealth(t *testing.T) {
	svc, st, m, brute := retailFixture(t)
	h := NewHandler(svc, st, m)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/schema", nil))
	var schema SchemaDoc
	if err := json.Unmarshal(w.Body.Bytes(), &schema); err != nil {
		t.Fatalf("schema: %v", err)
	}
	if len(schema.Dims) != 3 || schema.Dims[0].Name != "name" || schema.Measure != "sales" {
		t.Fatalf("schema dims %+v measure %q", schema.Dims, schema.Measure)
	}
	if !reflect.DeepEqual(schema.Dims[1].Values, []string{"Oslo", "Rome"}) &&
		!reflect.DeepEqual(schema.Dims[1].Values, []string{"Rome", "Oslo"}) {
		t.Fatalf("city values %v", schema.Dims[1].Values)
	}
	if schema.Groups != brute.Len() || len(schema.Cuboids) != 8 {
		t.Fatalf("schema groups=%d cuboids=%d, want %d and 8", schema.Groups, len(schema.Cuboids), brute.Len())
	}
	if len(schema.Cuboids[0].Dims) != 0 || schema.Cuboids[0].Size != 1 {
		t.Fatalf("apex cuboid %+v", schema.Cuboids[0])
	}

	// Issue one query, then check the stats document.
	doReq(t, h, http.MethodGet, "/v1/query?op=point&group=laptop,*,2012", "")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats Stats
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.SchemaVersion != MetricsSchemaVersion || stats.Tool != "spserve" {
		t.Fatalf("stats header %+v", stats)
	}
	if stats.Queries["point"] == 0 || stats.Groups != brute.Len() || stats.Cuboids != 8 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestHTTPClosedService(t *testing.T) {
	svc, st, _, _ := retailFixture(t)
	h := NewHandler(svc, st, nil)
	svc.Close()
	code, resp := doReq(t, h, http.MethodGet, "/v1/query?op=point&group=laptop,*,2012", "")
	if code != http.StatusServiceUnavailable || resp.Error == "" {
		t.Fatalf("closed service: %d %+v, want 503", code, resp)
	}
}

func TestDirectServiceMatchesBatched(t *testing.T) {
	svc, st, _, brute := retailFixture(t)
	direct := NewDirect(st, &Counters{})
	defer direct.Close()
	full := lattice.Full(st.D())
	for _, g := range brute.Cuboid(full) {
		q := Query{Op: OpPoint, Mask: full, Packed: g.Packed}
		a, errA := svc.Query(q)
		b, errB := direct.Query(q)
		if errA != nil || errB != nil || a.Found != b.Found || a.Value != b.Value ||
			!a.Found || a.Value != g.Value {
			t.Fatalf("batched %+v/%v vs direct %+v/%v for %v", a, errA, b, errB, g.Packed)
		}
	}
	if _, err := direct.Query(Query{Op: Op(9)}); err == nil {
		t.Fatal("direct accepted an invalid op")
	}
}

// FuzzQueryRequest: whatever bytes arrive as a POST /v1/query body, the
// handler answers 200 with a well-formed answer or a 4xx carrying an error
// message — never a panic, never a 5xx.
func FuzzQueryRequest(f *testing.F) {
	svc, st, _, _ := retailFixture(f)
	h := NewHandler(svc, st, nil)
	for _, seed := range []string{
		`{"op":"point","group":["laptop","*","2012"]}`,
		`{"op":"slice","group":["laptop","?","*"]}`,
		`{"op":"rollup","group":["laptop","Rome","2012"]}`,
		`{"op":"topk","group":["?","?","*"],"k":3}`,
		`{"op":"topk","group":["?","*","*"],"k":-1}`,
		`{"op":"slice","group":["?","Rome","*"]}`,
		`{"group":["nobody","*","*"]}`,
		`{"op":"point","group":["?"]}`,
		`{"op":"point","group":["laptop","*","2012"]} trailing`,
		`{"op":7}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		var resp QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: status %d, answer %q is not a QueryResponse: %v", body, w.Code, w.Body.String(), err)
		}
		switch {
		case w.Code == http.StatusOK:
			if resp.Error != "" || resp.Op == "" {
				t.Fatalf("body %q: 200 with %+v", body, resp)
			}
			for _, g := range resp.Groups {
				if len(g.Group) != st.D() {
					t.Fatalf("body %q: group %v is not full width", body, g.Group)
				}
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
