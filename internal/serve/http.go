package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/spcube/spcube/internal/lattice"
)

// The HTTP/JSON API. Queries name groups the way the paper writes them: one
// value per dimension, with "*" for a dimension aggregated away and "?" for
// a dimension grouped on but unconstrained. So over (name, city, year):
//
//	{"op":"point",  "group":["laptop","*","2012"]}        value of (laptop,*,2012)
//	{"op":"slice",  "group":["laptop","?","*"]}           every city for laptop
//	{"op":"rollup", "group":["laptop","Rome","2012"]}     chain up to the apex
//	{"op":"topk",   "group":["?","?","*"], "k":3}         3 largest (name,city) groups
//
// GET /v1/query?op=point&group=laptop,*,2012 is the curl-friendly spelling
// (values therefore cannot contain commas; POST JSON has no such limit).

// QueryRequest is the wire form of one query.
type QueryRequest struct {
	Op string `json:"op"`
	// Group has one entry per dimension: a value, "*" (aggregated away)
	// or "?" (grouped, unconstrained).
	Group []string `json:"group"`
	// K is the top-k result size (topk only; default DefaultTopK).
	K int `json:"k,omitempty"`
}

// GroupDoc is one c-group in a response, in full-width display form.
type GroupDoc struct {
	Group []string `json:"group"`
	Value float64  `json:"value"`
}

// QueryResponse is the wire form of an answer. Point queries fill
// Found/Value; the other ops fill Groups.
type QueryResponse struct {
	Op     string     `json:"op"`
	Found  bool       `json:"found,omitempty"`
	Value  float64    `json:"value,omitempty"`
	Groups []GroupDoc `json:"groups,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// SchemaDoc describes the served cube to clients (the load generator reads
// it to build a realistic query population).
type SchemaDoc struct {
	Dims    []DimSchema `json:"dims"`
	Measure string      `json:"measure"`
	Groups  int         `json:"groups"`
	Cuboids []CuboidDoc `json:"cuboids"`
}

// DimSchema is one dimension: its name and a sample of served values (from
// the single-attribute cuboid, capped at SchemaValueCap).
type DimSchema struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// CuboidDoc is one materialized cuboid: the names of its grouped dimensions
// and its group count.
type CuboidDoc struct {
	Dims []string `json:"dims"`
	Size int      `json:"size"`
}

// SchemaValueCap bounds the per-dimension value sample in SchemaDoc.
const SchemaValueCap = 1024

// maxQueryBody bounds a POST /v1/query body. A query names one value per
// dimension; 1 MiB is orders of magnitude above any real one, and a larger
// body is answered 413 without being read.
const maxQueryBody = 1 << 20

// NewHandler builds the HTTP front end over a service: POST|GET /v1/query,
// GET /v1/schema, GET /v1/stats, GET /healthz. src must yield the snapshot
// the service serves — pass the Batched/Direct service itself so the
// handlers follow maintenance swaps, or a bare *Store for a static cube; m
// may be nil. A request resolves its values against the snapshot current when
// it arrives and renders its answer with the one current when the query has
// run (see handleQuery).
func NewHandler(svc Service, src StoreSource, m *Counters) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/schema", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, schemaDoc(src.Store()))
	})
	mux.Handle("/v1/stats", StatsHandler(m, src))
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeQueryRequest(w, r)
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, QueryResponse{Error: err.Error()})
			return
		}
		handleQuery(w, svc, src, req)
	})
	return mux
}

func schemaDoc(store *Store) SchemaDoc {
	schema := store.Schema()
	doc := SchemaDoc{
		Dims:    make([]DimSchema, store.D()),
		Measure: schema.MeasureName,
		Groups:  store.Groups(),
	}
	for i := range doc.Dims {
		doc.Dims[i] = DimSchema{
			Name:   schema.DimNames[i],
			Values: store.DimValues(i, SchemaValueCap),
		}
	}
	for _, ci := range store.Cuboids() {
		var dims []string
		for i := 0; i < store.D(); i++ {
			if ci.Mask.Has(i) {
				dims = append(dims, schema.DimNames[i])
			}
		}
		doc.Cuboids = append(doc.Cuboids, CuboidDoc{Dims: dims, Size: ci.Size})
	}
	return doc
}

// decodeQueryRequest accepts POST (JSON body of at most maxQueryBody bytes)
// and GET (?op=&group=a,b,*&k=).
func decodeQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Op = q.Get("op")
		if g := q.Get("group"); g != "" {
			req.Group = strings.Split(g, ",")
		}
		if ks := q.Get("k"); ks != "" {
			k, err := strconv.Atoi(ks)
			if err != nil {
				return req, fmt.Errorf("bad k %q", ks)
			}
			req.K = k
		}
	default:
		return req, fmt.Errorf("method %s not allowed (want GET or POST)", r.Method)
	}
	if req.Op == "" {
		req.Op = "point"
	}
	return req, nil
}

// errUnknownValue marks a query naming a dimension value the served relation
// never saw: the group cannot exist, so the answer is an empty result, not
// an error.
var errUnknownValue = errors.New("unknown dimension value")

// parseGroupSpec translates a wire-form group into a Query.
func parseGroupSpec(store *Store, op Op, group []string, k int) (Query, error) {
	d := store.D()
	if len(group) != d {
		return Query{}, fmt.Errorf("serve: group needs %d entries, got %d", d, len(group))
	}
	q := Query{Op: op, K: k}
	wild := false
	for i, g := range group {
		switch g {
		case "*":
			continue
		case "?":
			q.Mask |= lattice.Mask(1) << uint(i)
			wild = true
			switch op {
			case OpPoint, OpRollup:
				return Query{}, fmt.Errorf("serve: %s query cannot use \"?\" (dimension %s)", op, store.Schema().DimNames[i])
			}
		default:
			q.Mask |= lattice.Mask(1) << uint(i)
			if wild {
				// The sorted runs are prefix-ordered by ascending
				// attribute, so a concrete value after a "?" is not a
				// contiguous range.
				return Query{}, fmt.Errorf("serve: slice values must precede \"?\" entries (dimension %s)", store.Schema().DimNames[i])
			}
			if op == OpTopK {
				return Query{}, fmt.Errorf("serve: topk query takes only \"?\" and \"*\" entries, got %q", g)
			}
			code, ok := store.DimCode(i, g)
			if !ok {
				return Query{}, errUnknownValue
			}
			q.Packed = append(q.Packed, code)
		}
	}
	return q, nil
}

func handleQuery(w http.ResponseWriter, svc Service, src StoreSource, req QueryRequest) {
	op, err := OpByName(req.Op)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
		return
	}
	q, err := parseGroupSpec(src.Store(), op, req.Group, req.K)
	if errors.Is(err, errUnknownValue) {
		// A group over a never-seen value does not exist: empty answer.
		writeJSON(w, http.StatusOK, QueryResponse{Op: op.String()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
		return
	}
	res, err := svc.Query(q)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, QueryResponse{Op: op.String(), Error: err.Error()})
		return
	}
	// svc ran the query on its snapshot of that moment, which a maintenance
	// swap may have made newer than the one the request was parsed against —
	// with groups over codes the older dictionary lacks, which it would render
	// as bare numbers. Dictionaries only grow from snapshot to snapshot, so
	// one loaded now decodes every code the answer can hold.
	store := src.Store()
	resp := QueryResponse{Op: op.String(), Found: res.Found, Value: res.Value}
	for _, g := range res.Groups {
		resp.Groups = append(resp.Groups, GroupDoc{Group: renderGroup(store, g), Value: g.Value})
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderGroup expands a packed group to its full-width display form.
func renderGroup(store *Store, g Group) []string {
	out := make([]string, store.D())
	j := 0
	for i := range out {
		if g.Mask.Has(i) {
			out[i] = store.DimString(i, g.Packed[j])
			j++
		} else {
			out[i] = "*"
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
