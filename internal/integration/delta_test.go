package integration

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cli"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

// tupleSet is a mutable multiset of raw-coded tuples. The relations it
// materializes use raw Append (no dictionary), so tuple codes are the values
// themselves and stay identical between the maintainer's evolving relation
// and the from-scratch relations the oracle recomputes over.
type tupleSet struct {
	d    int
	rows []relation.Tuple
}

func (ts *tupleSet) relation() *relation.Relation {
	names := make([]string, ts.d)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	rel := relation.New(names, "m")
	for _, tp := range ts.rows {
		rel.Append(tp.Dims, tp.Measure)
	}
	return rel
}

// apply edits the set the way a maintenance batch edits the relation:
// remove one occurrence per delete, then append.
func (ts *tupleSet) apply(b delta.Batch) {
	for _, del := range b.Delete {
		for i, tp := range ts.rows {
			if tp.Measure == del.Measure && relation.ComparePacked(tp.Dims, del.Dims) == 0 {
				ts.rows = append(ts.rows[:i], ts.rows[i+1:]...)
				break
			}
		}
	}
	for _, tp := range b.Append {
		ts.rows = append(ts.rows, tp.Clone())
	}
}

func randomTuples(rng *rand.Rand, n, d, card int) []relation.Tuple {
	rows := make([]relation.Tuple, n)
	for i := range rows {
		dims := make([]relation.Value, d)
		for j := range dims {
			dims[j] = relation.Value(rng.Intn(card))
		}
		rows[i] = relation.Tuple{Dims: dims, Measure: int64(rng.Intn(50))}
	}
	return rows
}

func dedupTuples(ts []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for _, tp := range ts {
		if !slices.ContainsFunc(out, func(o relation.Tuple) bool {
			return o.Measure == tp.Measure && relation.ComparePacked(o.Dims, tp.Dims) == 0
		}) {
			out = append(out, tp)
		}
	}
	return out
}

// maintainedDiff describes how the maintained cube differs, group set or
// any value's bits, from a brute-force recompute over the edited relation
// under the iceberg threshold minSup.
func maintainedDiff(maint *delta.Maintainer, ts *tupleSet, fn agg.Func, minSup int) string {
	if got, want := maint.Result(), cube.BruteSpec(ts.relation(), cube.Spec{Agg: fn, MinSup: minSup}); !reflect.DeepEqual(got, want) {
		_, diff := want.Equal(got)
		return "maintained cube diverges from recompute: " + diff
	}
	return ""
}

// deltaPoint is one maintenance sequence: a maintainer over a random base
// relation takes two stacked batches, app appends and del deletes drawn from
// the base and then 25 appends, with an algorithm, aggregate and iceberg
// threshold, on a cluster shape, at a parallelism, under a fault plan.
type deltaPoint struct {
	algo       string
	skewed     bool  // half the base rows collapse onto one hot tuple
	seed       int64 // draws the base, the batches and the deletes
	n, d, card int
	agg        string
	minSup     int
	k, p       int
	eseed      int64
	faults     string // an mr.ParseFaultPlan spec that recoverable accepts
	app, del   int
}

// deltaCoords is a deltaPoint as FuzzDeltaEquivalence takes it.
type deltaCoords struct {
	algo, d, card, agg, minsup, k, p, app, del uint8
	n                                          uint16
	seed, eseed                                int64
	skewed                                     bool
	faults                                     string
}

// deltaMinSups are the iceberg thresholds FuzzDeltaEquivalence decodes to:
// the full cube, and icebergs a few appends lift groups into.
var deltaMinSups = []int{0, 2, 3, 5}

// decode maps c onto a deltaPoint, every axis modulo its range.
func (c deltaCoords) decode() deltaPoint {
	p := deltaPoint{algo: allAlgorithms[int(c.algo)%len(allAlgorithms)].name, skewed: c.skewed, seed: c.seed,
		n: 1 + int(c.n)%300, d: 1 + int(c.d)%3, card: 1 + int(c.card)%6, agg: aggNames[int(c.agg)%len(aggNames)],
		k: 1 + int(c.k)%8, p: int(c.p) % 9, eseed: c.eseed, app: int(c.app) % 41, del: int(c.del) % 16,
		minSup: deltaMinSups[int(c.minsup)%len(deltaMinSups)]}
	p.faults = recoverable(c.faults, p.k)
	return p
}

// encode is decode's inverse on seed points.
func (p deltaPoint) encode() deltaCoords {
	return deltaCoords{uint8(algoIndex(p.algo)), uint8(p.d - 1), uint8(p.card - 1), uint8(slices.Index(aggNames, p.agg)),
		uint8(slices.Index(deltaMinSups, p.minSup)), uint8(p.k - 1), uint8(p.p), uint8(p.app), uint8(p.del), uint16(p.n - 1),
		p.seed, p.eseed, p.skewed, p.faults}
}

// runDelta returns the rounds p's batches took, metrics dropped, and how
// the maintained cube diverged from brute force after each.
func runDelta(t *testing.T, p deltaPoint) (rounds []delta.Round, errs []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(p.seed))
	ts := &tupleSet{d: p.d, rows: randomTuples(rng, p.n, p.d, p.card)}
	if p.skewed {
		for _, tp := range ts.rows[:p.n/2] {
			for j := range tp.Dims {
				tp.Dims[j] = relation.Value(j + 1)
			}
		}
	}
	fn, _ := agg.ByName(p.agg)
	plan, _ := mr.ParseFaultPlan(p.faults)
	maint, err := delta.New(ts.relation(), delta.Config{Algorithm: p.algo, Agg: fn, MinSup: p.minSup, Workers: p.k,
		Parallelism: p.p, Seed: p.eseed, Faults: plan})
	if err != nil {
		t.Fatalf("%#v: %v", p, err)
	}
	first := delta.Batch{Append: randomTuples(rng, p.app, p.d, p.card)}
	for i := 0; i < min(p.del, len(ts.rows)); i++ {
		first.Delete = append(first.Delete, ts.rows[rng.Intn(len(ts.rows))].Clone())
	}
	first.Delete = dedupTuples(first.Delete)
	for _, b := range []delta.Batch{first, {Append: randomTuples(rng, 25, p.d, p.card)}} {
		if len(b.Append) == 0 && len(b.Delete) == 0 {
			continue // the maintainer refuses an empty batch
		}
		rnd, err := maint.Apply(b)
		if err != nil {
			t.Fatalf("%#v: %v", p, err)
		}
		ts.apply(b)
		rnd.Metrics = mr.JobMetrics{}
		rounds = append(rounds, *rnd)
		if diff := maintainedDiff(maint, ts, fn, p.minSup); diff != "" {
			errs = append(errs, fmt.Sprintf("round %d: %s", rnd.Round, diff))
		}
	}
	return rounds, errs
}

// checkDelta holds p's maintained cube to brute force after each batch, and
// its rounds — mode, reason and changes — to its parallelism twin's and,
// under faults, to its fault-free twin's.
func checkDelta(t *testing.T, p deltaPoint) {
	t.Helper()
	rounds, errs := runDelta(t, p)
	par, clean := p, p
	par.p, clean.faults = otherP(p.p), ""
	for _, q := range []deltaPoint{par, clean} {
		if q == p {
			continue
		}
		if tw, _ := runDelta(t, q); !reflect.DeepEqual(rounds, tw) {
			errs = append(errs, fmt.Sprintf("rounds differ from those at p=%d under %q:\n%+v\n%+v", q.p, q.faults, rounds, tw))
		}
	}
	// Every aggregate's states merge, and those of all but min, max and
	// distinct invert: every round is a delta that publishes its changes,
	// and it recomputes exactly when it deletes under one of those three.
	for _, r := range rounds {
		reason := "mergeable"
		if r.Deleted > 0 && slices.Contains([]string{"min", "max", "distinct"}, p.agg) {
			reason = "recompute"
		}
		if r.Mode != "delta" || r.Reason != reason || r.Changes == nil {
			errs = append(errs, fmt.Sprintf("round %d (+%d/-%d under %s) took %s/%s with %d changes, want delta/%s",
				r.Round, r.Appended, r.Deleted, p.agg, r.Mode, r.Reason, len(r.Changes), reason))
		}
	}
	report(t, p, errs)
}

// FuzzDeltaEquivalence decodes a maintenance sequence from its inputs and
// checks it. Its seeds, each of which must decode back from its encoding,
// are the differential maintenance table it replaced — every algorithm on
// uniform and skewed bases, under append-only and append+delete batches, at
// p = 1 and 8, SP-Cube also under faults — the first fuzz corpus, deletes
// under the aggregates whose finals are no sums of parts, and one iceberg per
// algorithm. Those under distinct recompute on their first batch and merge
// their 25 appends on the second.
func FuzzDeltaEquivalence(f *testing.F) {
	for _, p := range deltaSeeds() {
		c := p.encode()
		if q := c.decode(); q != p {
			f.Fatalf("seed %#v decodes back as %#v", p, q)
		}
		f.Add(c.algo, c.d, c.card, c.agg, c.minsup, c.k, c.p, c.app, c.del, c.n, c.seed, c.eseed, c.skewed, c.faults)
	}
	f.Fuzz(func(t *testing.T, algo, d, card, aggr, minsup, k, par, app, del uint8, n uint16, seed, eseed int64,
		skewed bool, faults string) {
		checkDelta(t, deltaCoords{algo, d, card, aggr, minsup, k, par, app, del, n, seed, eseed, skewed, faults}.decode())
	})
}

func deltaSeeds() []deltaPoint {
	var seeds []deltaPoint
	for _, a := range allAlgorithms {
		plans := []string{""}
		if a.name == "sp-cube" {
			plans = append(plans, "*:map:*:crash,*:reduce:0:mid-emit@2")
		}
		for _, base := range []string{"uniform", "skewed"} {
			for _, batch := range []string{"append", "append+delete"} {
				for _, par := range []int{1, 8} {
					for _, faults := range plans {
						// The table seeded each cell by the length of its name.
						name := fmt.Sprintf("%s/%s/%s/p%d", a.name, base, batch, par)
						if faults != "" {
							name += "/faulted"
						}
						seeds = append(seeds, deltaPoint{algo: a.name, skewed: base == "skewed", seed: int64(len(name)) * 31,
							n: 300, d: 3, card: 6, agg: "sum", k: 4, p: par, eseed: 42,
							faults: faults, app: 40, del: map[string]int{"append+delete": 15}[batch]})
					}
				}
			}
		}
	}
	for _, p := range []deltaPoint{{seed: 1, n: 51, d: 3, card: 4, agg: "count", app: 10},
		{seed: 2, n: 121, d: 1, card: 6, agg: "sum", app: 30, del: 7},
		{seed: 3, n: 1, d: 2, card: 2, agg: "min", del: 15}, // deletes only: the first batch empties the relation
		{seed: 4, n: 81, d: 1, card: 3, agg: "sum", app: 25, del: 12},
		{seed: 5, n: 31, d: 3, card: 1, agg: "min"}} {
		p.algo, p.k, p.eseed = "sp-cube", 3, p.seed
		seeds = append(seeds, p)
	}
	for i, name := range []string{"avg", "var", "stddev", "distinct"} {
		for j, a := range allAlgorithms[:2] {
			seeds = append(seeds, deltaPoint{algo: a.name, skewed: j == 1, seed: int64(6 + 2*i + j), n: 90, d: 3, card: 4,
				agg: name, k: 3, p: 1 + 7*j, eseed: 7, app: 20, del: 12})
		}
	}
	// Icebergs on the skewed base, appending and deleting: the maintainer
	// holds only the published groups, and recomputes those its batches
	// touch that it does not hold; under min and max its deletes recompute
	// too.
	for i, a := range allAlgorithms {
		seeds = append(seeds, deltaPoint{algo: a.name, skewed: true, seed: int64(14 + i), n: 200, d: 3, card: 4,
			agg: []string{"count", "sum", "min", "avg", "max"}[i%5], minSup: deltaMinSups[1+i%3], k: 3, p: 1 + 7*(i%2),
			eseed: 7, app: 30, del: 12})
	}
	return seeds
}

// TestDeltaSoak is the randomized maintenance soak behind `make delta-soak`:
// maintainers with chaos faults injected into every cycle's jobs feed a
// serving store through cli.NextStore + swap, each cycle and each served
// snapshot verified exactly against brute force. Two legs run the same fault
// plan and batches: under var every cycle merges, its deletes taking the
// 128-bit inverse of its states; under min, whose states do not invert, the
// cycles that delete recompute the groups they touch, and their changes
// patch the served store like any other. Odd cycles only append, so the min
// legs take both reasons. A third leg runs min under an iceberg (MinSup 3):
// its maintainer holds only the published groups, and recomputes the touched
// groups it does not hold. Interleaved
// failing cycles (invalid deletes) and a permanently-faulted maintainer must
// leave both the maintained state and the served snapshot untouched.
// SPCUBE_SOAK_CYCLES scales the run.
func TestDeltaSoak(t *testing.T) {
	cycles := 8
	if s := os.Getenv("SPCUBE_SOAK_CYCLES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("SPCUBE_SOAK_CYCLES=%q: %v", s, err)
		}
		cycles = v
	}
	plan, err := mr.ParseFaultPlan("*:map:*:crash,*:node:1:node-crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name   string
		fn     agg.Func
		minSup int
	}{{"var", agg.Var, 0}, {"min", agg.Min, 0}, {"min_minsup3", agg.Min, 3}} {
		fn := leg.fn
		t.Run(leg.name, func(t *testing.T) {
			reasons := soakMaintainer(t, fn, leg.minSup, plan, cycles)
			t.Logf("%d cycles under %s took reasons %v", cycles, leg.name, reasons)
			if agg.Invertible(fn) && reasons["recompute"] > 0 {
				t.Errorf("%d of the cycles recomputed under %s, whose states invert", reasons["recompute"], fn.Name())
			}
			if !agg.Invertible(fn) && cycles >= 2 && (reasons["mergeable"] == 0 || reasons["recompute"] == 0) {
				t.Errorf("cycles under %s took reasons %v, want both mergeable and recompute", fn.Name(), reasons)
			}
		})
	}

	// A permanently-faulted configuration (every map attempt crashes, no
	// retries left) must fail the initial build cleanly rather than hand
	// back a half-built maintainer. Mid-life job failures leaving state
	// untouched are pinned by internal/delta's
	// TestFailedCycleLeavesStateUntouched.
	fatal, err := mr.ParseFaultPlan("*:map:*:crash:0:*")
	if err != nil {
		t.Fatal(err)
	}
	ts := &tupleSet{d: 2, rows: randomTuples(rand.New(rand.NewSource(5)), 100, 2, 4)}
	if _, err := delta.New(ts.relation(), delta.Config{Agg: agg.Count, Workers: 3, Seed: 5, Faults: fatal}); err == nil {
		t.Fatal("permanently-faulted initial build succeeded")
	}
}

// soakMaintainer runs one leg of TestDeltaSoak under fn and the iceberg
// threshold minSup, and counts the reasons its cycles took.
func soakMaintainer(t *testing.T, fn agg.Func, minSup int, plan *mr.FaultPlan, cycles int) map[string]int {
	rng := rand.New(rand.NewSource(2016))
	ts := &tupleSet{d: 3, rows: randomTuples(rng, 400, 3, 5)}
	maint, err := delta.New(ts.relation(), delta.Config{Agg: fn, MinSup: minSup, Workers: 4, Seed: 9, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	st, err := serve.Build(maint.Relation(), maint.Result())
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(st, serve.Config{})
	t.Cleanup(func() { svc.Close() })

	// checkServed asserts the served snapshot equals brute force exactly.
	checkServed := func(cycle int) {
		t.Helper()
		want := cube.BruteSpec(ts.relation(), cube.Spec{Agg: fn, MinSup: minSup})
		store := svc.Store()
		if store.Groups() != want.Len() {
			t.Fatalf("cycle %d: served store has %d groups, brute %d", cycle, store.Groups(), want.Len())
		}
		for key, v := range want.Groups {
			mask, packed, err := relation.DecodeGroupKey(key)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := store.Point(lattice.Mask(mask), packed)
			if !ok || got != v {
				t.Fatalf("cycle %d: served group %q = %v,%v want %v", cycle, key, got, ok, v)
			}
		}
	}
	checkServed(0)

	reasons := map[string]int{}
	for cycle := 1; cycle <= cycles; cycle++ {
		if cycle%4 == 0 {
			// A failing cycle: deleting a tuple that does not exist must
			// reject the whole batch and leave everything untouched.
			before := svc.Store()
			version := maint.Version()
			bad := delta.Batch{
				Append: randomTuples(rng, 5, 3, 5),
				Delete: []relation.Tuple{{Dims: []relation.Value{9, 9, 9}, Measure: 12345}},
			}
			if _, err := maint.Apply(bad); err == nil {
				t.Fatalf("cycle %d: invalid delete accepted", cycle)
			}
			if maint.Version() != version {
				t.Fatalf("cycle %d: failed cycle advanced the version", cycle)
			}
			if svc.Store() != before {
				t.Fatalf("cycle %d: failed cycle swapped the served snapshot", cycle)
			}
			checkServed(cycle)
			continue
		}
		batch := delta.Batch{Append: randomTuples(rng, 10+rng.Intn(30), 3, 5)}
		if cycle%2 == 0 { // odd cycles only append
			for i := 1 + rng.Intn(7); i > 0 && len(ts.rows) > 50; i-- {
				batch.Delete = append(batch.Delete, ts.rows[rng.Intn(len(ts.rows))].Clone())
			}
		}
		batch.Delete = dedupTuples(batch.Delete)
		rnd, err := maint.Apply(batch)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		ts.apply(batch)
		if rnd.Mode != "delta" || rnd.Changes == nil {
			t.Fatalf("cycle %d ran as %s with %d changes, want a delta", cycle, rnd.Mode, len(rnd.Changes))
		}
		reasons[rnd.Reason]++
		if diff := maintainedDiff(maint, ts, fn, minSup); diff != "" {
			t.Fatalf("cycle %d (%s): %s", cycle, rnd.Reason, diff)
		}

		next, err := cli.NextStore(svc.Store(), maint, rnd)
		if err != nil {
			t.Fatalf("cycle %d (%s): %v", cycle, rnd.Reason, err)
		}
		svc.Swap(next)
		checkServed(cycle)
	}
	return reasons
}
