package integration

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// point is one cell of the byte-identity contract's configuration space: a
// cube algorithm over a generated relation, under an aggregate and iceberg
// threshold, on a cluster shape, at a parallelism, through a spill leg and
// under a fault plan. FuzzCubeEquivalence decodes one from its inputs and
// check holds it to brute force and to its twins.
type point struct {
	algo       string
	gen        string // a gens entry; the coordinates it does not read are zero
	n, d, card int
	seed       int64
	agg        string
	minsup     int
	k, mem, p  int    // workers, memory in tuples (0: n/k), parallelism (0: GOMAXPROCS)
	budget     int64  // spill budget in bytes; 0 keeps the shuffle in memory
	codec      string // spill block codec; "" is raw
	fanIn      int
	faults     string // an mr.ParseFaultPlan spec that recoverable accepts
	eseed      uint64 // the engine's partitioning and placement seed
}

// generator is a relation generator; reads names the coordinates it uses,
// of n, d, c(ard) and s(eed).
type generator struct {
	name, reads string
	gen         func(n, d, card int, seed int64) *relation.Relation
}

// gens are the relation generators a point draws from.
var gens = []generator{
	{"random", "ndcs", func(n, d, card int, seed int64) *relation.Relation {
		return cubetest.RandomRelation(rand.New(rand.NewSource(seed)), n, d, card)
	}},
	{"uniform", "ndcs", data.Uniform},
	{"binomial-0.4", "nds", func(n, d, _ int, seed int64) *relation.Relation { return data.GenBinomial(n, d, 0.4, seed) }},
	{"binomial-0.5", "nds", func(n, d, _ int, seed int64) *relation.Relation { return data.GenBinomial(n, d, 0.5, seed) }},
	{"zipf", "ns", func(n, _, _ int, seed int64) *relation.Relation { return data.GenZipf(n, seed) }},
	{"wiki", "ns", func(n, _, _ int, seed int64) *relation.Relation { return data.WikiTraffic(n, seed) }},
	{"usagov", "ns", func(n, _, _ int, seed int64) *relation.Relation {
		return data.USAGov(n, seed).Restrict(data.USAGovCubeDims)
	}},
	{"retail", "ns", func(n, _, _ int, seed int64) *relation.Relation { return data.Retail(n, seed) }},
	// Theorem 5.3's relation: card%50+1 copies of every level-d/2 pattern, d
	// rounded up to even — at most 6·50 rows, like the others' n ≤ 800.
	{"adversarial", "dc", func(_, d, card int, _ int64) *relation.Relation { return data.Adversarial(d+d%2, card%50) }},
}

// The value tables the decoder indexes.
var (
	aggNames = []string{"count", "sum", "min", "max", "avg", "var", "stddev", "distinct"}
	budgets  = []int64{0, 1, 512, 4096}
	codecs   = []string{"", "lz"}
	fanIns   = []int{0, 2}
)

// maxAttempts is every run's attempt budget: recoverable plans hit first
// attempts only, so one retry must recover each fault.
const maxAttempts = 2

func genIndex(name string) int {
	return slices.IndexFunc(gens, func(g generator) bool { return g.name == name })
}

func algoIndex(name string) int {
	return slices.IndexFunc(allAlgorithms, func(a namedAlgorithm) bool { return a.name == name })
}

// recoverable returns spec in its canonical form if a run under it must
// succeed on k workers — it parses, every fault hits first attempts in every
// round, and at most one node crashes, leaving a live one — and the empty
// plan otherwise, so that every fuzz input decodes to a point that must pass.
func recoverable(spec string, k int) string {
	plan, err := mr.ParseFaultPlan(spec)
	nodes := 0
	for i := 0; err == nil && plan != nil && i < len(plan.Faults); i++ {
		f := plan.Faults[i]
		if f.Round != mr.AnyIndex || f.Attempt != 0 || f.Count > 1 || f.Kind == mr.FaultNodeCrash && f.Task == mr.AnyIndex {
			return ""
		}
		if f.Kind == mr.FaultNodeCrash {
			nodes++
		}
	}
	if err != nil || nodes > 1 || nodes == 1 && k == 1 {
		return ""
	}
	return plan.String()
}

// coords is a point as FuzzCubeEquivalence takes it.
type coords struct {
	algo, gen, d, agg, minsup, k, p, budget, codec, fanIn uint8
	n, mem                                                uint16
	card                                                  uint32
	seed                                                  int64
	eseed                                                 uint64
	faults                                                string
}

// decode maps c onto a point, every axis modulo its range.
func (c coords) decode() point {
	g := gens[int(c.gen)%len(gens)]
	p := point{
		algo: allAlgorithms[int(c.algo)%len(allAlgorithms)].name, gen: g.name,
		n: 1 + int(c.n)%800, d: 1 + int(c.d)%4, card: 1 + int(c.card%100000), seed: c.seed,
		agg: aggNames[int(c.agg)%len(aggNames)], minsup: int(c.minsup),
		k: 1 + int(c.k)%16, mem: int(c.mem), p: int(c.p) % 9,
		budget: budgets[int(c.budget)%len(budgets)], codec: codecs[int(c.codec)%len(codecs)],
		fanIn: fanIns[int(c.fanIn)%len(fanIns)], eseed: c.eseed,
	}
	for r, v := range map[rune]*int{'n': &p.n, 'd': &p.d, 'c': &p.card} {
		if !strings.ContainsRune(g.reads, r) {
			*v = 0
		}
	}
	if !strings.ContainsRune(g.reads, 's') {
		p.seed = 0
	}
	p.faults = recoverable(c.faults, p.k)
	return p
}

// encode is decode's inverse on seed points.
func (p point) encode() coords {
	return coords{uint8(algoIndex(p.algo)), uint8(genIndex(p.gen)), uint8(p.d - 1), uint8(slices.Index(aggNames, p.agg)),
		uint8(p.minsup), uint8(p.k - 1), uint8(p.p), uint8(slices.Index(budgets, p.budget)), uint8(slices.Index(codecs, p.codec)),
		uint8(slices.Index(fanIns, p.fanIn)), uint16(p.n - 1), uint16(p.mem), uint32(p.card - 1), p.seed, p.eseed, p.faults}
}

// outcome is what one run of a point leaves behind.
type outcome struct {
	res      *cube.Result
	checksum uint64
	records  int64
	metrics  mr.JobMetrics
	sim      float64
	trace    []mr.TraceEvent // timestamps zeroed
	left     []string        // what is left in the point's spill directory
	docs     [2]string       // doc's two forms, built on first use
}

// runs caches outcomes by point, so the seeds that share a twin run it once;
// brutes caches brute-force cubes by relation and aggregate. Each is emptied
// when full, which bounds a long -fuzz run's memory.
var (
	runs   = map[point]*outcome{}
	brutes = map[point]*cube.Result{}
)

// run executes p on the one engine configuration it describes.
func run(t *testing.T, p point) *outcome {
	t.Helper()
	if o, ok := runs[p]; ok {
		return o
	}
	fn, _ := agg.ByName(p.agg)
	plan, _ := mr.ParseFaultPlan(p.faults)
	var dir string
	if p.budget > 0 {
		dir = t.TempDir()
	}
	tracer := &mr.SliceTracer{}
	eng := mr.New(mr.Config{Workers: p.k, MemTuples: p.mem, Seed: p.eseed, Parallelism: p.p,
		Faults: plan, MaxAttempts: maxAttempts,
		SpillBudgetBytes: p.budget, SpillDir: dir, SpillCodec: p.codec, MergeFanIn: p.fanIn,
		Tracer: tracer}, dfs.New(false))
	rel := gens[genIndex(p.gen)].gen(p.n, p.d, p.card, p.seed)
	res, cr, err := cubetest.RunAndCollect(eng, allAlgorithms[algoIndex(p.algo)].fn, rel, cube.Spec{Agg: fn, MinSup: p.minsup})
	if err != nil {
		t.Fatalf("%#v: %v", p, err)
	}
	for i := range tracer.Events {
		tracer.Events[i].Time = time.Time{}
	}
	o := &outcome{res: res, checksum: eng.FS.TotalChecksum(cr.OutputPrefix), records: eng.FS.TotalRecords(cr.OutputPrefix),
		metrics: cr.Metrics, sim: cr.Metrics.Totals().SimSeconds, trace: tracer.Events, left: leftIn(dir)}
	if len(runs) == 128 {
		clear(runs)
	}
	runs[p] = o
	return o
}

func brute(p point) *cube.Result {
	key := point{gen: p.gen, n: p.n, d: p.d, card: p.card, seed: p.seed, agg: p.agg, minsup: p.minsup}
	if _, ok := brutes[key]; !ok {
		if len(brutes) == 256 {
			clear(brutes)
		}
		fn, _ := agg.ByName(p.agg)
		brutes[key] = cube.BruteSpec(gens[genIndex(p.gen)].gen(p.n, p.d, p.card, p.seed), cube.Spec{Agg: fn, MinSup: p.minsup})
	}
	return brutes[key]
}

// recovery is the recovery accounting (task attempts, wasted bytes, map
// re-executions and fetch failures) — the only counters a faulted run is
// allowed to differ from a fault-free run on.
var recovery = []string{"retries", "attempts", "wastedBytes", "mapReexecutions", "reexecutions", "fetchFailures"}

// doc is o's metrics document through mr.StripVolatile, less the recovery
// keys when lessRecovery is set. Each form is built once per outcome: the
// run cache hands the same outcome to every seed and twin that meets it.
func (o *outcome) doc(t *testing.T, lessRecovery bool) string {
	t.Helper()
	i, extra := 0, []string(nil)
	if lessRecovery {
		i, extra = 1, recovery
	}
	if o.docs[i] == "" {
		doc, err := json.Marshal(&o.metrics)
		if err == nil {
			doc, err = mr.StripVolatile(doc, extra...)
		}
		if err != nil {
			t.Fatal(err)
		}
		o.docs[i] = string(doc)
	}
	return o.docs[i]
}

// check holds p to brute force and to its twins: the same point at another
// parallelism, without faults, and without faults or a spill budget. A
// failure prints the point as a Go literal.
func check(t *testing.T, p point) {
	t.Helper()
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	// same compares a with twin b: output bytes always, simulated seconds and
	// metrics documents through strip when it is set, traces when asked to.
	same := func(twin string, a, b *outcome, strip func(*outcome) string, trace bool) {
		for _, c := range []struct {
			what string
			eq   bool
		}{
			{"DFS output", a.checksum == b.checksum && a.records == b.records},
			{"simulated seconds", strip == nil || a.sim == b.sim},
			{"metrics", strip == nil || strip(a) == strip(b)},
			{"trace", !trace || reflect.DeepEqual(a.trace, b.trace)},
		} {
			if !c.eq {
				fail("%s differs from the %s twin's", c.what, twin)
			}
		}
	}
	o := run(t, p)
	if ok, diff := brute(p).Equal(o.res); !ok {
		fail("cube diverges from brute force: %s", diff)
	}
	if len(o.left) > 0 {
		fail("spill files left behind: %v", o.left)
	}
	par := p
	par.p = otherP(p.p)
	same("parallelism", o, run(t, par), func(o *outcome) string { return o.doc(t, false) }, true)

	clean, c := p, o
	clean.faults = ""
	if p.faults != "" {
		c = run(t, clean)
		same("fault-free", o, c, func(o *outcome) string { return o.doc(t, true) }, false)
		checkFired(p, o, c, fail)
	}
	checkClean(clean, c, fail)
	if p.budget > 0 {
		mem := clean
		mem.budget, mem.codec, mem.fanIn = 0, "", 0
		same("in-memory", o, run(t, mem), nil, false)
	}
	report(t, p, errs)
}

// otherP is the parallelism of a point's parallelism twin.
func otherP(p int) int {
	if p == 1 {
		return 8
	}
	return 1
}

// report fails t with the point as a Go literal and what its check found.
func report(t *testing.T, p any, errs []string) {
	t.Helper()
	if len(errs) > 0 {
		t.Errorf("%#v:\n\t%s", p, strings.Join(errs, "\n\t"))
	}
}

// events counts a trace's events and sums their bytes by type.
func events(trace []mr.TraceEvent) (n, bytes map[string]int64) {
	n, bytes = map[string]int64{}, map[string]int64{}
	for _, e := range trace {
		n[e.Type]++
		bytes[e.Type] += e.Bytes
	}
	return n, bytes
}

// checkClean checks the accounting of p's run o, which injected no faults. It
// recovered from nothing. Its spill, spill-flush and merge-pass events agree
// with the metrics: one spill-flush per map-side spill, carrying its written
// bytes. A map task whose emits reached the spill budget spilled. A round
// whose map side flushed more runs than fan-in × reducers ran merge passes,
// since each run reaches some reducer.
func checkClean(p point, o *outcome, fail func(string, ...any)) {
	m, tot := o.metrics, o.metrics.Totals()
	ev, evBytes := events(o.trace)
	if tot.Retries != 0 || tot.FetchFailures != 0 || tot.WastedBytes != 0 {
		fail("a fault-free run recovered: %d retries, %d fetch failures, %d wasted bytes",
			tot.Retries, tot.FetchFailures, tot.WastedBytes)
	}
	var flushes, flushBytes int64
	for r, rm := range m.Rounds {
		var runs int64
		for task, tm := range rm.Mappers {
			runs += tm.Spills
			flushBytes += tm.CompressedSpillBytes
			if p.budget > 0 && tm.PreCombineBytes >= p.budget && tm.Spills == 0 {
				fail("round %d map %d emitted %d bytes under a %d-byte budget and never spilled", r, task, tm.PreCombineBytes, p.budget)
			}
		}
		flushes += runs
		if p.fanIn > 0 && !rm.Failed && runs > int64(p.fanIn*len(rm.Reducers)) && rm.MergePasses == 0 {
			fail("round %d sent %d map-side runs to %d reducers at fan-in %d without a merge pass", r, runs, len(rm.Reducers), p.fanIn)
		}
	}
	if ev[mr.EvSpill] != tot.Spills || evBytes[mr.EvSpill] != tot.SpillBytes || ev[mr.EvMergePass] != tot.MergePasses ||
		ev[mr.EvSpillFlush] != flushes || evBytes[mr.EvSpillFlush] != flushBytes {
		fail("trace saw %d spills of %d bytes, %d spill-flushes of %d bytes and %d merge passes, metrics %d, %d, %d, %d and %d",
			ev[mr.EvSpill], evBytes[mr.EvSpill], ev[mr.EvSpillFlush], evBytes[mr.EvSpillFlush], ev[mr.EvMergePass],
			tot.Spills, tot.SpillBytes, flushes, flushBytes, tot.MergePasses)
	}
}

// checkFired checks that p's plan did in its run o what it injects. What it
// must do is read off the fault-free twin c's tasks: a task's first attempt
// meets the plan's first fault naming its phase and index (or every index),
// and runs on the node mr.PlaceNode hashes it to.
func checkFired(p point, o, c *outcome, fail func(string, ...any)) {
	tot := o.metrics.Totals()
	ev, _ := events(o.trace)
	plan, _ := mr.ParseFaultPlan(p.faults)
	node := -1
	var retry, fetch bool
	for _, f := range plan.Faults {
		if f.Kind == mr.FaultNodeCrash && f.Task < p.k {
			node = f.Task
		}
	}
	for r, rm := range c.metrics.Rounds {
		for ph, tasks := range [][]mr.TaskMetrics{rm.Mappers, rm.Reducers} {
			phase := mr.Phase(ph)
			for task, tm := range tasks {
				f := armed(plan, phase, task)
				if node >= 0 && mr.PlaceNode(p.eseed, r, phase, task, 0, p.k) == node {
					// A reduce attempt placed on the crashed node is killed; an
					// unfaulted map attempt's stored output is lost with it.
					retry = retry || phase == mr.PhaseReduce
					fetch = fetch || phase == mr.PhaseMap && f == nil
				}
				switch {
				case f == nil:
				case f.Kind == mr.FaultCrashMidEmit:
					emits := tm.PreCombineRecords
					if phase == mr.PhaseReduce {
						emits = tm.OutRecords + tm.SideRecords
					}
					retry = retry || emits >= max(f.AfterEmits, 1)
				default:
					retry = true
				}
			}
		}
	}
	must := func(cond bool, what string, n int64, event string) {
		if cond && (n == 0 || ev[event] == 0) {
			fail("the plan must %s: counted %d, traced %d %s events", what, n, ev[event], event)
		}
	}
	must(retry, "retry", tot.Retries, mr.EvTaskRetry)
	must(node >= 0, "crash a node", 1, mr.EvNodeCrash)
	must(fetch, "lose map output", min(tot.FetchFailures, tot.MapReexecutions), mr.EvFetchFail)
}

// armed returns the fault a first attempt of the task meets, or nil.
func armed(plan *mr.FaultPlan, phase mr.Phase, task int) *mr.Fault {
	for i := range plan.Faults {
		if f := &plan.Faults[i]; f.Phase == phase && (f.Task == mr.AnyIndex || f.Task == task) {
			return f
		}
	}
	return nil
}

// FuzzCubeEquivalence decodes a point from its inputs and checks it. Its seed
// corpus is every cell of the tables it replaced, each of which must decode
// back from its encoding; `go test -fuzz` explores past them and minimizes a
// failure into testdata/fuzz/, which plain `go test` then replays.
func FuzzCubeEquivalence(f *testing.F) {
	for _, p := range cubeSeeds() {
		c := p.encode()
		if q := c.decode(); q != p {
			f.Fatalf("seed %#v decodes back as %#v", p, q)
		}
		f.Add(c.algo, c.gen, c.d, c.agg, c.minsup, c.k, c.p, c.budget, c.codec, c.fanIn,
			c.n, c.mem, c.card, c.seed, c.eseed, c.faults)
	}
	f.Fuzz(func(t *testing.T, algo, gen, d, aggr, minsup, k, par, budget, codec, fanIn uint8,
		n, mem uint16, card uint32, seed int64, eseed uint64, faults string) {
		check(t, coords{algo, gen, d, aggr, minsup, k, par, budget, codec, fanIn, n, mem, card, seed, eseed, faults}.decode())
	})
}

// cubeSeeds lists the cells of the byte-identity tables this suite used to
// enumerate, one point each, crossed with every algorithm where the table
// crossed them. The determinism and oracle tables' spill legs run on a
// quarter of their relation, a sixteenth at budget 1, which writes a run per
// record; the trace table's keep all of theirs.
func cubeSeeds() []point {
	var seeds []point
	every := func(p point) {
		for _, a := range allAlgorithms {
			p.algo = a.name
			seeds = append(seeds, p)
		}
	}
	spill := func(p point, legs ...point) {
		for _, leg := range legs {
			q := p
			q.n, q.budget, q.codec, q.fanIn = p.n/4, leg.budget, leg.codec, leg.fanIn
			if q.budget == 1 {
				q.n /= 4
			}
			every(q)
		}
	}
	legs := []point{{budget: 1}, {budget: 512}, {budget: 512, codec: "lz", fanIn: 2}}

	// Every algorithm on every distribution, under count.
	for _, w := range []point{
		{gen: "random", n: 400, d: 3, card: 4, seed: 1}, {gen: "random", n: 400, d: 3, card: 100000, seed: 2},
		{gen: "binomial-0.5", n: 400, d: 3, seed: 3}, {gen: "zipf", n: 400, seed: 4}, {gen: "wiki", n: 400, seed: 5},
		{gen: "usagov", n: 400, seed: 6}, {gen: "retail", n: 400, seed: 7}, {gen: "adversarial", d: 4, card: 25},
	} {
		w.agg, w.k = "count", 5
		every(w)
	}
	// Every aggregate, and two iceberg thresholds, on a skewed relation.
	for _, a := range []point{{agg: "count"}, {agg: "sum"}, {agg: "min"}, {agg: "max"}, {agg: "avg"}, {agg: "var"},
		{agg: "stddev"}, {agg: "distinct"}, {agg: "sum", minsup: 10}, {agg: "count", minsup: 50}} {
		every(point{gen: "binomial-0.4", n: 500, d: 3, seed: 11, agg: a.agg, minsup: a.minsup, k: 4})
	}
	// Cluster shapes, memory tighter than n/k and covering the relation.
	for _, s := range [][2]int{{1, 0}, {2, 0}, {7, 0}, {16, 0}, {4, 50}, {4, 600}} {
		every(point{gen: "zipf", n: 600, seed: 13, agg: "count", k: s[0], mem: s[1]})
	}
	// Parallelism determinism under three plans, each with the spill legs.
	for _, w := range []point{{gen: "binomial-0.4", n: 800, d: 4, seed: 31}, {gen: "uniform", n: 800, d: 3, card: 9, seed: 32}} {
		for _, faults := range []string{"", "*:map:*:crash,*:reduce:*:mid-emit@4", "*:node:1:node-crash"} {
			w.agg, w.k, w.p, w.eseed, w.faults = "count", 6, 1, 42, faults
			every(w)
			spill(w, legs...)
		}
	}
	// The differential oracle: every fault kind at p = 1 and 8, the spill legs
	// clean and under crashes at p = 8.
	for _, w := range []point{{gen: "random", n: 400, d: 3, card: 50, seed: 51}, {gen: "zipf", n: 400, seed: 29},
		{gen: "random", n: 400, d: 3, card: 1, seed: 53}} {
		w.agg, w.k, w.eseed = "count", 6, 42
		for i, faults := range []string{"", "*:map:*:crash,*:reduce:*:crash", "*:node:1:node-crash",
			"*:map:*:mid-emit@2,*:reduce:*:mid-emit@2", "*:map:*:oom,*:reduce:*:oom"} {
			w.faults, w.p = faults, 1
			every(w)
			w.p = 8
			every(w)
			if i < 3 {
				spill(w, legs...)
			}
		}
	}
	// The trace tables: plans whose events the stream must carry, and the
	// spill pipeline's own events.
	tr := point{gen: "binomial-0.4", n: 600, d: 4, seed: 31, agg: "count", k: 6, p: 1, eseed: 42}
	for _, faults := range []string{"", "*:map:*:crash", "*:reduce:*:mid-emit@3", "*:node:1:node-crash"} {
		tr.faults = faults
		every(tr)
	}
	// The spill pipeline's events at the table's full 600 rows.
	tr.faults = ""
	for _, leg := range []point{{budget: 512, codec: "lz"}, {budget: 1, codec: "lz", fanIn: 2}} {
		tr.budget, tr.codec, tr.fanIn = leg.budget, leg.codec, leg.fanIn
		every(tr)
	}
	// Random multi-fault plans — task faults of every kind and node crashes —
	// on a random algorithm and relation each. The stream still draws the
	// retired straggler kind and two stall indices, so that every plan keeps
	// its other faults and its relation.
	rng := rand.New(rand.NewSource(2016))
	for iter := 0; iter < 25; iter++ {
		var parts []string
		for i, m := 0, 1+rng.Intn(3); i < m; i++ {
			phase, task := [2]string{"map", "reduce"}[rng.Intn(2)], "*"
			if rng.Intn(2) == 1 {
				task = fmt.Sprint(rng.Intn(6))
			}
			if kind := []string{"crash", "mid-emit@2", "", "oom"}[rng.Intn(4)]; kind != "" {
				parts = append(parts, fmt.Sprintf("*:%s:%s:%s", phase, task, kind))
			}
		}
		if rng.Intn(2) == 1 {
			parts = append(parts, fmt.Sprintf("*:node:%d:node-crash", rng.Intn(5)))
		}
		p := point{gen: "random", agg: "count", faults: strings.Join(parts, ","), k: 5, eseed: rng.Uint64(), p: 1 + rng.Intn(8)}
		rng.Intn(2)
		rng.Intn(2)
		p.n, p.d, p.card, p.seed = 50+rng.Intn(250), 1+rng.Intn(4), 1+rng.Intn(9), rng.Int63()
		p.algo = allAlgorithms[rng.Intn(len(allAlgorithms))].name
		seeds = append(seeds, p)
	}
	// The first fuzz corpus: SP-Cube under one fault each.
	for _, p := range []point{{n: 61, d: 3, card: 4, seed: 1, faults: "*:map:0:crash"},
		{n: 201, d: 4, card: 2, seed: 7, faults: "*:reduce:2:mid-emit@2"},
		{n: 31, d: 2, card: 3, seed: 3, faults: "*:map:1:oom"}, {n: 91, d: 3, card: 5, seed: 5, faults: "*:node:1:node-crash"}} {
		p.algo, p.gen, p.agg, p.k, p.eseed = "sp-cube", "random", "count", 4, 13
		seeds = append(seeds, p)
	}
	return seeds
}

// TestDecodersReachTheSpace holds the two decoders to the space their fuzz
// targets claim: every algorithm, distribution, aggregate, spill leg and
// fault kind decodes from some input. A decoder that narrows it fails here.
func TestDecodersReachTheSpace(t *testing.T) {
	reached := map[string]map[any]bool{}
	for i := 0; i < 256; i++ {
		b := uint8(i)
		p := coords{algo: b, gen: b, agg: b, budget: b, codec: b / 4, fanIn: b / 8}.decode()
		q := deltaCoords{algo: b, agg: b, minsup: b}.decode()
		for axis, v := range map[string]any{"algorithm": p.algo, "distribution": p.gen, "aggregate": p.agg,
			"spill leg": [3]any{p.budget, p.codec, p.fanIn}, "delta algorithm": q.algo, "delta aggregate": q.agg,
			"delta minsup": q.minSup} {
			if reached[axis] == nil {
				reached[axis] = map[any]bool{}
			}
			reached[axis][v] = true
		}
	}
	reached["fault kind"] = map[any]bool{}
	for _, spec := range []string{"*:map:0:crash", "*:reduce:*:mid-emit@2", "*:reduce:0:oom", "*:node:1:node-crash"} {
		if plan, _ := mr.ParseFaultPlan(coords{k: 1, faults: spec}.decode().faults); plan != nil {
			reached["fault kind"][plan.Faults[0].Kind] = true
		}
	}
	for axis, want := range map[string]int{"algorithm": len(algo.Table), "distribution": len(gens), "aggregate": 8,
		"spill leg": len(budgets) * len(codecs) * len(fanIns), "delta algorithm": len(algo.Table),
		"delta aggregate": len(aggNames), "delta minsup": len(deltaMinSups), "fault kind": int(mr.FaultNodeCrash) + 1} {
		if len(reached[axis]) != want {
			t.Errorf("%d of %d values of the %s axis decode from some input", len(reached[axis]), want, axis)
		}
	}
}
