// Command spserve computes the data cube of a CSV file and serves it over
// HTTP: point, slice, rollup and top-k queries against a read-optimized
// in-memory index, with request batching and single-flight result caching
// so concurrent clients coalesce into few index probes.
//
// The input format is cmd/spcube's, and the compute flags are the shared
// engine group (-k -p -seed -faults -max-attempts -trace -metrics-out
// -pprof) and input group (-in -agg -algo -minsup) of internal/cli,
// declared and validated there for all three binaries: a bad value exits 2
// before the input is opened. The serving side adds:
//
//	spserve -in sales.csv -addr localhost:8080
//	curl 'localhost:8080/v1/query?op=point&group=laptop,*,2012'
//	curl -d '{"op":"topk","group":["?","?","*"],"k":3}' localhost:8080/v1/query
//	curl localhost:8080/v1/schema     # dims, served values, cuboid sizes
//	curl localhost:8080/v1/stats      # queries, cache hits, batch coalescing
//
// The served cube is maintainable online: POST /v1/ingest applies a batch of
// appended and/or deleted rows through the incremental-maintenance layer
// (internal/delta) — delta-cube MR jobs, plus a round that recomputes the
// touched groups whose state the server does not know (those a delete
// touches under min, max or distinct, whose states do not invert, and,
// under -minsup, those below the threshold: the server holds only the
// groups it publishes), merged into the serving index as a
// copy-on-write patch — and atomically swaps the new snapshot in. In-flight queries keep reading the old
// snapshot; no request ever sees a half-updated cube.
//
//	curl -d '{"append":[{"dims":["laptop","Rome","2013"],"measure":5}],
//	          "delete":[{"dims":["laptop","Rome","2012"],"measure":3}]}' \
//	     localhost:8080/v1/ingest
//
// -addr :0 binds a free port; -addr-file writes the resolved host:port to a
// file once the server is listening (how the benchmark harness finds it).
// With -pprof, the serving counters are also exported on the observability
// endpoint at /debug/serve. Drive it with the benchmark harness
// (go run -C benchmark . -workload …) for QPS and latency percentiles.
//
// SIGINT/SIGTERM while the initial cube is being built (or during an ingest
// cycle) stops the MapReduce job at its next attempt boundary; the listener
// is never opened and the exit status is 1. Once serving, the first signal
// shuts the HTTP server down cleanly and exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/obs"
	"github.com/spcube/spcube/internal/serve"
)

func main() {
	os.Exit(cli.Exit("spserve", os.Stderr, run(context.Background(), os.Args[1:], os.Stderr)))
}

// options are spserve's own flags, beside the engine and input groups.
type options struct {
	addr, addrFile string
}

// declare registers spserve's flag surface on fs.
func declare(fs *flag.FlagSet) (*cli.Flags, *options) {
	f, o := cli.New(fs), &options{}
	f.Engine(8, 1)
	f.Input()
	fs.StringVar(&o.addr, "addr", "localhost:8080", "serving address (use :0 for a free port)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the resolved host:port to this file once listening")
	return f, o
}

// liveStore is the /debug/serve route's view of the service: -pprof starts
// with the process, so the initial build can be profiled, and the route
// reports no store until the service exists.
type liveStore struct{ svc atomic.Pointer[serve.Batched] }

func (l *liveStore) Store() *serve.Store {
	if svc := l.svc.Load(); svc != nil {
		return svc.Store()
	}
	return nil
}

// run executes one spserve invocation; main minus the process exit, so
// tests can drive the full CLI (cancelling ctx plays the interrupt).
func run(ctx context.Context, args []string, stderr io.Writer) error {
	f, o := declare(flag.NewFlagSet("spserve", flag.ContinueOnError))
	counters, live := &serve.Counters{}, &liveStore{}
	s, err := f.Start(ctx, args, stderr, obs.Route{Pattern: "/debug/serve", Handler: serve.StatsHandler(counters, live)})
	if err != nil {
		return err
	}
	defer s.Close()

	// Cycle 0 of the incremental maintainer is the full initial build.
	rel, err := s.LoadRelation()
	if err != nil {
		return err
	}
	start := time.Now()
	maint, err := delta.New(rel, s.DeltaConfig())
	if err != nil {
		return fmt.Errorf("%s failed: %w", s.Algo, err)
	}
	metrics := maint.Metrics()
	if err := s.WriteMetrics(func(w io.Writer) error { return mr.ExportMetrics(w, &metrics) }); err != nil {
		return err
	}
	indexing := time.Now()
	store, err := serve.BuildRun(maint.Relation(), maint.Published)
	if err != nil {
		return fmt.Errorf("indexing cube: %w", err)
	}
	indexed := time.Since(indexing)
	svc := serve.NewService(store, serve.Config{Counters: counters})
	defer svc.Close()
	live.svc.Store(svc)
	built := maint.LastBuild()
	fmt.Fprintf(stderr, "spserve: %s cubed %d rows into %d groups (%d cuboids) in %.2fs (job %.2fs, index %.2fs, store %.2fs)\n",
		s.Algo, rel.N(), store.Groups(), len(store.Cuboids()), time.Since(start).Seconds(),
		built.Job.Seconds(), built.Index.Seconds(), indexed.Seconds())

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(resolved), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stderr, "spserve: serving %d groups on http://%s/\n", svc.Store().Groups(), resolved)

	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(svc, svc, counters))
	mux.Handle("/v1/ingest", ingestHandler(svc, maint))
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errs := make(chan error, 1)
	go func() { errs <- httpSrv.Serve(ln) }()
	select {
	case <-s.Config.Context.Done():
		_ = httpSrv.Close()
		<-errs
	case err := <-errs:
		if err != http.ErrServerClosed {
			return err
		}
	}
	return nil
}

// Bounds of the request path. They are constants, not flags: no deployment
// of this server needs other values.
const (
	// maxIngestBody bounds a POST /v1/ingest body; a larger one is answered
	// 413 unread. A row costs ~100 B on the wire, so 32 MiB is a batch of
	// some 300k rows — the size of a whole served relation, not of a delta.
	maxIngestBody = 32 << 20
	// readHeaderTimeout drops a connection that does not finish sending its
	// request headers; idleTimeout closes a keep-alive connection no request
	// has arrived on.
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// IngestRow is one string-valued row in an ingest request.
type IngestRow struct {
	Dims    []string `json:"dims"`
	Measure int64    `json:"measure"`
}

// IngestRequest is the wire form of one maintenance batch.
type IngestRequest struct {
	Append []IngestRow `json:"append,omitempty"`
	Delete []IngestRow `json:"delete,omitempty"`
}

// IngestResponse reports one applied maintenance cycle.
type IngestResponse struct {
	Round    int    `json:"round,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Appended int    `json:"appended"`
	Deleted  int    `json:"deleted"`
	Groups   int    `json:"groups"`
	Error    string `json:"error,omitempty"`
}

// ingestHandler applies maintenance batches: run the maintenance cycle, turn
// its change list into a serving patch, and atomically swap the new snapshot
// in. A handler-level mutex serializes the cycle + swap pair so
// patches always apply to the snapshot their change list was computed
// against. A failed cycle (e.g. injected faults) mutates nothing: the old
// snapshot keeps serving.
func ingestHandler(svc *serve.Batched, maint *delta.Maintainer) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, IngestResponse{Error: "ingest requires POST"})
			return
		}
		var req IngestRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, IngestResponse{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
		toRows := func(in []IngestRow) []delta.Row {
			out := make([]delta.Row, len(in))
			for i, r := range in {
				out[i] = delta.Row{Dims: r.Dims, Measure: r.Measure}
			}
			return out
		}
		mu.Lock()
		defer mu.Unlock()
		rnd, err := maint.ApplyStrings(toRows(req.Append), toRows(req.Delete))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, IngestResponse{Error: err.Error()})
			return
		}
		next, err := cli.NextStore(svc.Store(), maint, rnd)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, IngestResponse{Error: err.Error()})
			return
		}
		svc.Swap(next)
		writeJSON(w, http.StatusOK, IngestResponse{
			Round:    rnd.Round,
			Mode:     rnd.Mode,
			Reason:   rnd.Reason,
			Appended: rnd.Appended,
			Deleted:  rnd.Deleted,
			Groups:   next.Groups(),
		})
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
