package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spcube/spcube"
	"github.com/spcube/spcube/internal/agg"
	spalgo "github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/buc"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/mr/blockcodec"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

// The programs' defaults, as cmd/spcube and cmd/spserve declare them. The
// traced pass replays the pipeline with these so its layers do the work the
// timed CLI runs did.
const (
	cliWorkers     = 8
	cliSeed        = 1
	cliCache       = 4096
	cliBatchWindow = 100 * time.Microsecond
	cliMaxBatch    = 128
)

// tracedPass replays one workload in this process with a span around each
// call into a layer, and returns the per-layer metrics those spans and the
// layers' own public counters (mr.JobMetrics) give. The cli.*, exec.* and
// harness.* metrics, and the cache and batcher ratios read from the real
// server's /v1/stats, are the caller's.
func tracedPass(in *inputs, sc scale, seed int64, tmp, cliSHA string, tr *tracer, o *ops) (map[string]float64, error) {
	m := make(map[string]float64)
	root := tr.begin(0, "inproc")
	defer tr.end(root)
	if err := tracedBatch(in, tmp, cliSHA, tr, root, o, m); err != nil {
		return nil, err
	}
	if err := tracedServe(in, sc, seed, tmp, tr, root, o, m); err != nil {
		return nil, err
	}
	return m, nil
}

// readRows streams the data rows of a CSV in the programs' input shape
// (dimension columns, then an integer measure) to add, the way both
// programs' readCSV loops do; add is the layer's own row-append function.
func readRows(path string, open func(dimNames []string, measure string), add func(dims []string, measure int64)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("%s: reading header: %w", path, err)
	}
	d := len(header) - 1
	open(append([]string(nil), header[:d]...), header[d])
	dims := make([]string, d)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		copy(dims, rec[:d])
		v, err := strconv.ParseInt(rec[d], 10, 64)
		if err != nil {
			return err
		}
		add(dims, v)
	}
}

// loadFacade loads a CSV through the public facade, as cmd/spcube does.
func loadFacade(path string) (*spcube.Relation, error) {
	var rel *spcube.Relation
	err := readRows(path,
		func(dims []string, measure string) { rel = spcube.NewRelation(dims, measure) },
		func(dims []string, v int64) { rel.AddRow(dims, v) })
	return rel, err
}

// loadRelation loads a CSV into the internal relation, as cmd/spserve does.
func loadRelation(path string) (*relation.Relation, error) {
	var rel *relation.Relation
	err := readRows(path,
		func(dims []string, measure string) { rel = relation.New(dims, measure) },
		func(dims []string, v int64) { rel.AppendStrings(dims, v) })
	return rel, err
}

// renderCSV writes a cube the way spcube -o does: the facade's Cube.Groups
// (key sort, decode, dictionary look-ups) into a csv.Writer. The bytes must
// equal the program's own output; the caller checks.
func renderCSV(path string, rel *spcube.Relation, c *spcube.Cube, aggName string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(append(rel.DimNames(), aggName)); err != nil {
		return 0, err
	}
	var werr error
	c.Groups(func(g spcube.Group) {
		if werr == nil {
			werr = cw.Write(append(append([]string(nil), g.Dims...), strconv.FormatFloat(g.Value, 'g', -1, 64)))
		}
	})
	if werr != nil {
		return 0, werr
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// jobDoc is the part of the facade's versioned metrics document
// (Cube.MetricsJSON, mr.MetricsSchemaVersion) the per-layer metrics read.
type jobDoc struct {
	Rounds []struct {
		WallSeconds    float64 `json:"wallSeconds"`
		ShuffleRecords int64   `json:"shuffleRecords"`
		ShuffleBytes   int64   `json:"shuffleBytes"`
		OutputBytes    int64   `json:"outputBytes"`
		Mappers        []struct {
			WallSeconds       float64 `json:"wallSeconds"`
			PreCombineRecords int64   `json:"preCombineRecords"`
		} `json:"mappers"`
		Reducers []struct {
			WallSeconds float64 `json:"wallSeconds"`
		} `json:"reducers"`
	} `json:"rounds"`
	Retries              int64 `json:"retries"`
	Spills               int64 `json:"spills"`
	SpillBytes           int64 `json:"spillBytes"`
	CompressedSpillBytes int64 `json:"compressedSpillBytes"`
	MergePasses          int64 `json:"mergePasses"`
	SpillWriteStallNs    int64 `json:"spillWriteStallNs"`
	PrefetchHits         int64 `json:"prefetchHits"`
	PrefetchMisses       int64 `json:"prefetchMisses"`
}

// roundTimes reads the engine's JSON-lines trace for the wall-clock start
// and end of each round.
func roundTimes(trace []byte) (starts, ends []time.Time, err error) {
	dec := json.NewDecoder(bytes.NewReader(trace))
	for dec.More() {
		var ev struct {
			Time time.Time `json:"time"`
			Type string    `json:"type"`
		}
		if err := dec.Decode(&ev); err != nil {
			return nil, nil, fmt.Errorf("engine trace: %w", err)
		}
		switch ev.Type {
		case mr.EvRoundStart:
			starts = append(starts, ev.Time)
		case mr.EvRoundEnd:
			ends = append(ends, ev.Time)
		}
	}
	return starts, ends, nil
}

// spillCapture keeps the first spill run file's bytes (up to max) as the
// engine writes them, so the codec can be timed on this workload's own
// front-coded shuffle records.
type spillCapture struct {
	mu    sync.Mutex
	taken bool
	buf   bytes.Buffer
	max   int
}

func (c *spillCapture) wrap(w io.Writer) io.Writer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.taken {
		return w
	}
	c.taken = true
	return io.MultiWriter(w, capWriter{c})
}

type capWriter struct{ c *spillCapture }

func (w capWriter) Write(p []byte) (int, error) {
	if room := w.c.max - w.c.buf.Len(); room > 0 {
		w.c.buf.Write(p[:min(room, len(p))])
	}
	return len(p), nil
}

// tracedBatch is CSV in → cube CSV out through the public facade, the path
// cmd/spcube takes: load, Compute (the two MR rounds, then collect), render.
// cliSHA is the hash of the program's own output for the same input.
func tracedBatch(in *inputs, tmp, cliSHA string, tr *tracer, root int, o *ops, m map[string]float64) error {
	w := in.w
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	batch := tr.begin(root, "inproc.batch")

	id := tr.begin(batch, "relation.load")
	rel, err := loadFacade(in.batch)
	load := tr.end(id)
	if err != nil {
		return err
	}
	m["relation.load_s"] = load.Seconds()
	m["relation.rows_per_s"] = float64(rel.NumRows()) / load.Seconds()

	// The options cmd/spcube passes for this workload's flags; everything
	// else is the facade's default, which is the CLI's.
	opts := []spcube.Option{spcube.MinSupport(w.MinSup), spcube.SpillDir(tmp)}
	if w.SpillBudget > 0 {
		opts = append(opts, spcube.SpillBudget(w.SpillBudget), spcube.SpillCodec(w.SpillCodec))
	} else {
		opts = append(opts, spcube.SpillBudget(-1))
	}
	var events bytes.Buffer
	id = tr.begin(batch, "spcube.compute")
	c, err := spcube.Compute(rel, append(opts, spcube.Trace(&events))...)
	tr.end(id)
	if err != nil {
		return err
	}
	var doc jobDoc
	data, err := c.MetricsJSON()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("metrics document: %w", err)
	}
	starts, ends, err := roundTimes(events.Bytes())
	if err != nil {
		return err
	}
	if len(doc.Rounds) != 2 || len(starts) != 2 || len(ends) != 2 {
		return fmt.Errorf("sp-cube ran %d rounds (%d traced), want sketch + cube", len(doc.Rounds), len(starts))
	}
	// The engine stamps its rounds; what follows the last one inside
	// Compute is cube.CollectDFS.
	_, computeEnd := tr.interval(id)
	tr.add(id, "sketch.round", tr.offset(starts[0]), tr.offset(ends[0]))
	tr.add(id, "mr.cube_round", tr.offset(starts[1]), tr.offset(ends[1]))
	collect := tr.add(id, "cube.collect", tr.offset(ends[1]), computeEnd)
	sk, cr := &doc.Rounds[0], &doc.Rounds[1]
	st := c.Stats()
	m["sketch.build_s"] = sk.WallSeconds
	m["sketch.sample_tuples"] = float64(st.SampleTuples)
	m["sketch.bytes"] = float64(st.SketchBytes)
	m["sketch.skewed_groups"] = float64(st.SkewedGroups)
	for i := range cr.Mappers {
		m["mr.map_task_s"] += cr.Mappers[i].WallSeconds
		m["mr.precombine_records"] += float64(cr.Mappers[i].PreCombineRecords)
	}
	for i := range cr.Reducers {
		m["mr.reduce_task_s"] += cr.Reducers[i].WallSeconds
	}
	m["mr.shuffle_records"] = float64(cr.ShuffleRecords)
	m["mr.shuffle_bytes"] = float64(cr.ShuffleBytes)
	m["mr.round_wall_s"] = cr.WallSeconds
	m["mr.output_bytes"] = float64(cr.OutputBytes)
	m["mr.spills"] = float64(doc.Spills)
	m["mr.spill_bytes"] = float64(doc.SpillBytes)
	m["mr.spill_disk_bytes"] = float64(doc.CompressedSpillBytes)
	m["mr.spill_stall_ms"] = float64(doc.SpillWriteStallNs) / 1e6
	m["mr.merge_passes"] = float64(doc.MergePasses)
	m["mr.prefetch_hit_ratio"] = ratio(float64(doc.PrefetchHits), float64(doc.PrefetchHits+doc.PrefetchMisses))
	m["mr.retries"] = float64(doc.Retries)
	m["cube.collect_s"] = tr.duration(collect).Seconds()
	m["cube.groups"] = float64(c.NumGroups())

	out := filepath.Join(tmp, "inproc.csv")
	id = tr.begin(batch, "output.render")
	size, err := renderCSV(out, rel, c, "count")
	m["output.render_s"] = tr.end(id).Seconds()
	if err != nil {
		return err
	}
	m["output.bytes"] = float64(size)
	tr.end(batch)

	runtime.ReadMemStats(&after)
	m["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m["go.mallocs_per_tuple"] = float64(after.Mallocs-before.Mallocs) / float64(rel.NumRows())
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	// The replay is only worth reading if it did the program's work: its
	// output must be the program's, byte for byte.
	sum, err := fileSHA256(out)
	if err != nil {
		return err
	}
	if sum != cliSHA {
		err = fmt.Errorf("the in-process replay wrote different bytes than spcube")
	}
	o.check(err)
	return nil
}

// tracedKernels times two inner kernels on the served rows (a prefix of the
// batch input): buc.Compute on one reducer's share, and the lz codec on
// front-coded records captured from a spilling run of this workload's data.
func tracedKernels(in *inputs, rel *relation.Relation, tmp string, tr *tracer, parent int, m map[string]float64) error {
	w := in.w
	share := append([]relation.Tuple(nil), rel.Tuples[:min(rel.N(), in.nBatch/cliWorkers)]...)
	groups := 0
	id := tr.begin(parent, "buc.compute")
	buc.Compute(share, rel.D(), agg.Count, w.MinSup, func(lattice.Mask, []relation.Value, agg.State) { groups++ })
	m["buc.tuples_per_s"] = float64(len(share)) / tr.end(id).Seconds()
	m["buc.groups_out"] = float64(groups)

	capture := &spillCapture{max: 8 << 20}
	if w.SpillBudget > 0 {
		// The served prefix is a fraction of the batch input; the budget
		// shrinks with it so that this run spills too.
		eng := mr.New(mr.Config{
			Workers: cliWorkers, Seed: cliSeed,
			SpillBudgetBytes: max(1, w.SpillBudget*int64(rel.N())/int64(in.nBatch)), SpillDir: tmp, SpillCodec: w.SpillCodec,
			SpillWriteWrapper: capture.wrap,
		}, dfs.New(false))
		id = tr.begin(parent, "mr.capture")
		_, err := spalgo.ComputeOpts(eng, rel, cube.Spec{Agg: agg.Count, MinSup: w.MinSup}, spalgo.Options{Seed: cliSeed})
		tr.end(id)
		if err != nil {
			return err
		}
	}
	timeCodec(capture.buf.Bytes(), w.SpillCodec, m)
	return nil
}

// timeCodec times the lz codec on the captured run file. framed holds
// blockcodec frames in the run's codec; they are decoded back to the raw
// front-coded records first. A workload that never spills captures nothing
// and reports zeros.
func timeCodec(framed []byte, codecName string, m map[string]float64) {
	m["blockcodec.lz_encode_mb_s"], m["blockcodec.lz_decode_mb_s"], m["blockcodec.lz_ratio"] = 0, 0, 0
	codec, err := blockcodec.ByName(codecName)
	if err != nil || len(framed) == 0 {
		return
	}
	// The capture is cut at a byte limit, so the last frame may be short:
	// keep what decoded cleanly.
	raw, _ := io.ReadAll(blockcodec.NewReader(bytes.NewReader(framed), codec))
	var blocks [][]byte
	for rest := raw; len(rest) > 0; {
		n := min(len(rest), blockcodec.DefaultBlockSize)
		blocks = append(blocks, rest[:n])
		rest = rest[n:]
	}
	if len(blocks) == 0 {
		return
	}
	const passes = 8
	lz := blockcodec.LZ{}
	enc := make([][]byte, len(blocks))
	start := time.Now()
	for p := 0; p < passes; p++ {
		for i, b := range blocks {
			enc[i] = lz.Encode(enc[i][:0], b)
		}
	}
	encode := time.Since(start)
	var encBytes int
	var dec []byte
	start = time.Now()
	for p := 0; p < passes; p++ {
		encBytes = 0
		for i, b := range enc {
			dec, _ = lz.Decode(dec[:0], b, len(blocks[i]))
			encBytes += len(b)
		}
	}
	decode := time.Since(start)
	mb := float64(passes*len(raw)) / 1e6
	m["blockcodec.lz_encode_mb_s"] = mb / encode.Seconds()
	m["blockcodec.lz_decode_mb_s"] = mb / decode.Seconds()
	m["blockcodec.lz_ratio"] = float64(encBytes) / float64(len(raw))
}

// toQuery resolves a wire-form query against a store the way the HTTP
// handler does. ok is false when a value is unknown to the store.
func toQuery(store *serve.Store, q *query) (serve.Query, bool) {
	op, _ := serve.OpByName(q.Op)
	sq := serve.Query{Op: op, K: q.K}
	for i, g := range q.Group {
		switch g {
		case "*":
		case "?":
			sq.Mask |= 1 << uint(i)
		default:
			sq.Mask |= 1 << uint(i)
			code, ok := store.DimCode(i, g)
			if !ok {
				return sq, false
			}
			sq.Packed = append(sq.Packed, code)
		}
	}
	return sq, true
}

// tracedServe is CSV in → server state → queries → ingest: delta.New,
// serve.Build, the query stream through Batched.Query and through the HTTP
// handler, direct index probes, and maintenance cycles.
func tracedServe(in *inputs, sc scale, seed int64, tmp string, tr *tracer, root int, o *ops, m map[string]float64) error {
	w := in.w
	phase := tr.begin(root, "inproc.serve")
	defer tr.end(phase)

	id := tr.begin(phase, "relation.load.serve")
	rel, err := loadRelation(in.serve)
	tr.end(id)
	if err != nil {
		return err
	}
	for i := 0; i < rel.D(); i++ {
		m["relation.dict_entries"] += float64(rel.Dict.Cardinality(i))
	}
	if err := tracedKernels(in, rel, tmp, tr, phase, m); err != nil {
		return err
	}
	id = tr.begin(phase, "delta.new")
	maint, err := delta.New(rel, delta.Config{Algorithm: "sp-cube", Agg: agg.Count, MinSup: w.MinSup, Workers: cliWorkers, Seed: cliSeed})
	m["delta.new_s"] = tr.end(id).Seconds()
	if err != nil {
		return err
	}
	id = tr.begin(phase, "serve.build")
	store, err := serve.Build(maint.Relation(), maint.Result())
	m["serve.build_s"] = tr.end(id).Seconds()
	if err != nil {
		return err
	}
	m["serve.index_groups"] = float64(store.Groups())

	newService := func() (*serve.Batched, *serve.Counters) {
		c := &serve.Counters{}
		return serve.NewService(store, serve.Config{CacheEntries: cliCache, BatchWindow: cliBatchWindow, MaxBatch: cliMaxBatch, Counters: c}), c
	}
	queries := make([]serve.Query, len(in.queries))
	for i := range in.queries {
		q, ok := toQuery(store, &in.queries[i])
		if !ok {
			return fmt.Errorf("query %v names a value the store does not hold", in.queries[i].Group)
		}
		queries[i] = q
	}

	// Two callers, like the two connections of the timed phase; each path
	// starts on a cold cache. call returns the time spent inside the layer,
	// so the harness's own verification is not charged to it.
	const callers = 2
	calls := sc.TraceQueries / callers * callers
	loop := func(name string, call func(i int) (time.Duration, error)) float64 {
		id := tr.begin(phase, name)
		defer tr.end(id)
		var wg sync.WaitGroup
		busy := make([]time.Duration, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				pick := in.newPicker(seed, c)
				for n := 0; n < calls/callers; n++ {
					d, err := call(pick.next())
					busy[c] += d
					o.check(err)
				}
			}(c)
		}
		wg.Wait()
		var total time.Duration
		for _, d := range busy {
			total += d
		}
		return float64(total.Microseconds()) / float64(calls)
	}

	svc, _ := newService()
	m["serve.query_us"] = loop("serve.query", func(i int) (time.Duration, error) {
		t := time.Now()
		_, err := svc.Query(queries[i])
		return time.Since(t), err
	})
	svc.Close()

	svc, counters := newService()
	defer svc.Close()
	handler := serve.NewHandler(svc, svc, counters)
	bodies := make([][]byte, len(in.queries))
	for i := range in.queries {
		bodies[i], _ = json.Marshal(&in.queries[i])
	}
	var respBytes atomic.Int64
	m["serve.handler_us"] = loop("serve.handler", func(i int) (time.Duration, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(bodies[i]))
		t := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t)
		respBytes.Add(int64(rec.Body.Len()))
		var a answer
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			return d, err
		}
		return d, in.verifyAnswer(&in.queries[i], &a, true)
	})
	m["serve.resp_bytes"] = float64(respBytes.Load()) / float64(calls)

	// Direct probes of the index: one hash lookup per key, and the batched
	// galloping probe over each cuboid's sorted run in batcher-sized groups.
	byMask := make(map[lattice.Mask][][]relation.Value)
	points := 0
	for i := range queries {
		if queries[i].Op == serve.OpPoint && points < sc.TraceQueries {
			byMask[queries[i].Mask] = append(byMask[queries[i].Mask], queries[i].Packed)
			points++
		}
	}
	id = tr.begin(phase, "serve.point")
	for mask, keys := range byMask {
		for _, k := range keys {
			store.Point(mask, k)
		}
	}
	m["serve.point_ns"] = float64(tr.end(id).Nanoseconds()) / float64(points)
	id = tr.begin(phase, "serve.point_batch")
	for mask, keys := range byMask {
		for len(keys) > 0 {
			n := min(len(keys), cliMaxBatch)
			store.PointBatch(mask, keys[:n])
			keys = keys[n:]
		}
	}
	m["serve.point_batch_ns"] = float64(tr.end(id).Nanoseconds()) / float64(points)

	// Maintenance cycles, as spserve's ingest handler runs them.
	var apply, patch, swap time.Duration
	var drift float64
	deltas, appended := 0, 0
	for c := 0; c < sc.TraceCycles && (c+1)*in.ingestRows <= len(in.ingest); c++ {
		rows := make([]delta.Row, in.ingestRows)
		for i, r := range in.ingest[c*in.ingestRows : (c+1)*in.ingestRows] {
			v, _ := strconv.ParseInt(r[in.d], 10, 64) // generated by this harness
			rows[i] = delta.Row{Dims: r[:in.d], Measure: v}
		}
		id = tr.begin(phase, "delta.apply")
		rnd, err := maint.ApplyStrings(rows, nil)
		apply += tr.end(id)
		if err != nil {
			return err
		}
		drift += rnd.Drift
		id = tr.begin(phase, "serve.patch")
		var next *serve.Store
		if rnd.Mode == "delta" {
			deltas++
			p := serve.NewPatch()
			for _, ch := range rnd.Changes {
				if ch.Delete {
					err = p.Delete(ch.Key)
				} else {
					err = p.Set(ch.Key, ch.Value)
				}
				if err != nil {
					return err
				}
			}
			next, err = svc.Store().ApplyPatch(p, maint.Relation().Dict)
		} else {
			next, err = serve.Build(maint.Relation(), maint.Result())
		}
		patch += tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(phase, "serve.swap")
		svc.Swap(next)
		swap += tr.end(id)
		appended += len(rows)
	}
	cycles := float64(appended / in.ingestRows)
	m["delta.apply_ms"] = ratio(ms(apply), cycles)
	m["delta.mode_delta_share"] = ratio(float64(deltas), cycles)
	m["delta.drift"] = ratio(drift, cycles)
	m["serve.patch_ms"] = ratio(ms(patch), cycles)
	m["serve.swap_us"] = ratio(float64(swap.Microseconds()), cycles)

	apex, err := svc.Query(serve.Query{Op: serve.OpPoint})
	if err == nil && apex.Value != float64(in.nServe+appended) {
		err = fmt.Errorf("in-process apex after %d appended rows = %v, want %d", appended, apex.Value, in.nServe+appended)
	}
	o.check(err)
	return nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
