package integration

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
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

// checkMaintainedCube asserts exact equality (group set and bit-identical
// values) between the maintained cube and a brute-force recompute over the
// edited relation.
func checkMaintainedCube(t *testing.T, maint *delta.Maintainer, ts *tupleSet, fn agg.Func) {
	t.Helper()
	got := maint.Result()
	want := cube.Brute(ts.relation(), fn)
	if got.D != want.D {
		t.Fatalf("maintained cube has d=%d, recompute d=%d", got.D, want.D)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		for k, v := range want.Groups {
			if gv, ok := got.Groups[k]; !ok || gv != v {
				t.Errorf("group %q: maintained %v, recompute %v", k, got.Groups[k], v)
			}
		}
		for k := range got.Groups {
			if _, ok := want.Groups[k]; !ok {
				t.Errorf("group %q: maintained cube has it, recompute does not", k)
			}
		}
		t.Fatalf("maintained cube diverges from recompute: %d vs %d groups", len(got.Groups), len(want.Groups))
	}
}

// TestDifferentialDeltaMaintenance is the maintenance leg of the
// differential oracle: for every cube algorithm, on uniform and skewed
// bases, under append-only and append+delete batches, at parallelism 1 and
// 8, the cube maintained through delta.Maintainer must equal a full
// recompute over base∪delta exactly. sp-cube additionally runs under an
// injected fault plan — recovery must not leak into the maintained state.
func TestDifferentialDeltaMaintenance(t *testing.T) {
	algos := []string{"sp-cube", "naive", "mr-cube", "hive", "pipesort"}
	bases := []struct {
		name string
		gen  func(rng *rand.Rand) []relation.Tuple
	}{
		{"uniform", func(rng *rand.Rand) []relation.Tuple { return randomTuples(rng, 300, 3, 6) }},
		{"skewed", func(rng *rand.Rand) []relation.Tuple {
			// Half the rows collapse onto one hot tuple; the rest are uniform.
			rows := randomTuples(rng, 300, 3, 6)
			for i := 0; i < len(rows)/2; i++ {
				rows[i].Dims = []relation.Value{1, 2, 3}
			}
			return rows
		}},
	}
	batches := []string{"append", "append+delete"}
	pars := []int{1, 8}

	for _, algoName := range algos {
		faultPlans := []string{""}
		if algoName == "sp-cube" {
			faultPlans = append(faultPlans, "*:map:*:crash,*:reduce:0:mid-emit@2")
		}
		for _, base := range bases {
			for _, batchKind := range batches {
				for _, par := range pars {
					for _, faults := range faultPlans {
						name := fmt.Sprintf("%s/%s/%s/p%d", algoName, base.name, batchKind, par)
						if faults != "" {
							name += "/faulted"
						}
						t.Run(name, func(t *testing.T) {
							rng := rand.New(rand.NewSource(int64(len(name)) * 31))
							ts := &tupleSet{d: 3, rows: base.gen(rng)}
							plan, err := mr.ParseFaultPlan(faults)
							if err != nil {
								t.Fatal(err)
							}
							maint, err := delta.New(ts.relation(), delta.Config{
								Algorithm:   algoName,
								Agg:         agg.Sum,
								Workers:     4,
								Parallelism: par,
								Seed:        42,
								Faults:      plan,
								// Keep drift from forcing rebuilds so the
								// delta-merge path is what gets tested.
								RebuildThreshold: 0.999,
							})
							if err != nil {
								t.Fatal(err)
							}
							batch := delta.Batch{Append: randomTuples(rng, 40, 3, 6)}
							if batchKind == "append+delete" {
								for i := 0; i < 15; i++ {
									batch.Delete = append(batch.Delete, ts.rows[rng.Intn(len(ts.rows))].Clone())
								}
								// Duplicate picks delete one occurrence each;
								// drop duplicates to keep the oracle simple.
								batch.Delete = dedupTuples(batch.Delete)
							}
							rnd, err := maint.Apply(batch)
							if err != nil {
								t.Fatal(err)
							}
							// Sum inverts cleanly, so both batch kinds must
							// take the delta-merge path at this threshold.
							if rnd.Mode != "delta" {
								t.Fatalf("cycle took mode %q (reason %s, drift %.3f), want delta", rnd.Mode, rnd.Reason, rnd.Drift)
							}
							ts.apply(batch)
							checkMaintainedCube(t, maint, ts, agg.Sum)

							// A second batch stacks on the first: state, not
							// just a single transition, must be maintained.
							batch2 := delta.Batch{Append: randomTuples(rng, 25, 3, 6)}
							if _, err := maint.Apply(batch2); err != nil {
								t.Fatal(err)
							}
							ts.apply(batch2)
							checkMaintainedCube(t, maint, ts, agg.Sum)
						})
					}
				}
			}
		}
	}
}

func dedupTuples(ts []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for _, tp := range ts {
		dup := false
		for _, o := range out {
			if o.Measure == tp.Measure && relation.ComparePacked(o.Dims, tp.Dims) == 0 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, tp)
		}
	}
	return out
}

// FuzzDeltaEquivalence fuzzes the maintenance input space — base shape,
// batch composition, delete selection, aggregate, rebuild threshold — and
// checks that the maintained cube always equals a brute-force recompute
// over the edited relation, whichever mode (delta-merge or rebuild) the
// maintainer chose. `make fuzz-smoke` runs it for 10s alongside the
// engine-level cube fuzzer.
func FuzzDeltaEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(2), uint8(3), uint8(10), uint8(0), uint8(0))
	f.Add(int64(2), uint16(120), uint8(3), uint8(5), uint8(30), uint8(7), uint8(1))
	f.Add(int64(3), uint16(200), uint8(1), uint8(1), uint8(0), uint8(15), uint8(2)) // deletes only, forced rebuild
	f.Add(int64(4), uint16(80), uint8(3), uint8(2), uint8(25), uint8(12), uint8(4)) // min + deletes: rebuild reason "aggregate"
	f.Add(int64(5), uint16(30), uint8(2), uint8(6), uint8(40), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, dRaw, cardRaw, appRaw, delRaw, modeRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + int(dRaw)%3
		card := 1 + int(cardRaw)%6
		n := 1 + int(nRaw)%200
		ts := &tupleSet{d: d, rows: randomTuples(rng, n, d, card)}

		aggs := []struct {
			name string
			fn   agg.Func
		}{{"count", agg.Count}, {"sum", agg.Sum}, {"min", agg.Min}}
		chosen := aggs[int(modeRaw)%3]
		thresholds := []float64{0, 0.999, -1}
		thr := thresholds[int(modeRaw/3)%3]

		maint, err := delta.New(ts.relation(), delta.Config{
			Agg:              chosen.fn,
			Workers:          3,
			Seed:             seed,
			RebuildThreshold: thr,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := delta.Batch{Append: randomTuples(rng, int(appRaw)%40, d, card)}
		nd := int(delRaw) % 16
		if nd > len(ts.rows) {
			nd = len(ts.rows)
		}
		for i := 0; i < nd; i++ {
			batch.Delete = append(batch.Delete, ts.rows[rng.Intn(len(ts.rows))].Clone())
		}
		batch.Delete = dedupTuples(batch.Delete)
		if len(batch.Append) == 0 && len(batch.Delete) == 0 {
			return
		}
		if len(batch.Append) == 0 && len(batch.Delete) >= len(ts.rows) {
			// The maintainer refuses batches that would empty the relation;
			// that rejection (and its atomicity) is pinned elsewhere.
			return
		}
		if _, err := maint.Apply(batch); err != nil {
			t.Fatal(err)
		}
		ts.apply(batch)
		checkMaintainedCube(t, maint, ts, chosen.fn)
	})
}

// TestDeltaSoak is the randomized maintenance soak behind `make delta-soak`:
// a maintainer with chaos faults injected into every cycle's jobs feeds a
// serving store through the patch/rebuild + swap path, each cycle verified
// exactly against brute force; interleaved failing cycles (invalid deletes)
// and a permanently-faulted maintainer must leave both the maintained state
// and the served snapshot untouched. SPCUBE_SOAK_CYCLES scales the run.
func TestDeltaSoak(t *testing.T) {
	cycles := 8
	if s := os.Getenv("SPCUBE_SOAK_CYCLES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("SPCUBE_SOAK_CYCLES=%q: %v", s, err)
		}
		cycles = v
	}
	rng := rand.New(rand.NewSource(2016))
	ts := &tupleSet{d: 3, rows: randomTuples(rng, 400, 3, 5)}
	plan, err := mr.ParseFaultPlan("*:map:*:crash,*:node:1:node-crash")
	if err != nil {
		t.Fatal(err)
	}
	maint, err := delta.New(ts.relation(), delta.Config{
		Agg:     agg.Sum,
		Workers: 4,
		Seed:    9,
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := serve.Build(maint.Relation(), maint.Result())
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewDirect(st, nil)

	// checkServed asserts the served snapshot equals brute force exactly.
	checkServed := func(cycle int) {
		t.Helper()
		want := cube.Brute(ts.relation(), agg.Sum)
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
		for i := rng.Intn(8); i > 0 && len(ts.rows) > 50; i-- {
			batch.Delete = append(batch.Delete, ts.rows[rng.Intn(len(ts.rows))].Clone())
		}
		batch.Delete = dedupTuples(batch.Delete)
		rnd, err := maint.Apply(batch)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		ts.apply(batch)
		checkMaintainedCube(t, maint, ts, agg.Sum)

		next, err := cli.NextStore(svc.Store(), maint, rnd)
		if err != nil {
			t.Fatalf("cycle %d (%s): %v", cycle, rnd.Mode, err)
		}
		svc.Swap(next)
		checkServed(cycle)
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
	ts2 := &tupleSet{d: 2, rows: randomTuples(rng, 100, 2, 4)}
	if _, err := delta.New(ts2.relation(), delta.Config{Agg: agg.Count, Workers: 3, Seed: 5, Faults: fatal}); err == nil {
		t.Fatal("permanently-faulted initial build succeeded")
	}
}
