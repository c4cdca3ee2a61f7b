package delta

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// combined returns base ∪ appends − deletes as a fresh relation.
func combined(base *relation.Relation, batch Batch) *relation.Relation {
	out := &relation.Relation{Schema: base.Schema, Dict: base.Dict}
	used := make(map[int]bool)
	for _, del := range batch.Delete {
		for i, t := range base.Tuples {
			if used[i] {
				continue
			}
			if relation.CompareProjected(t.Dims, del.Dims, uint32(1<<uint(len(t.Dims)))-1) == 0 && t.Measure == del.Measure {
				used[i] = true
				break
			}
		}
	}
	for i, t := range base.Tuples {
		if !used[i] {
			out.Tuples = append(out.Tuples, t)
		}
	}
	out.Tuples = append(out.Tuples, batch.Append...)
	return out
}

// exactEqual requires bit-identical values for every group (the
// maintenance guarantee is byte-equality, not epsilon-equality).
func exactEqual(t *testing.T, want, got *cube.Result) {
	t.Helper()
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("group count: got %d, want %d", len(got.Groups), len(want.Groups))
	}
	for key, wv := range want.Groups {
		gv, ok := got.Groups[key]
		if !ok {
			t.Fatalf("missing group %q", key)
		}
		if gv != wv {
			t.Fatalf("group %q: got %v, want %v (not bit-identical)", key, gv, wv)
		}
	}
}

// allFuncs are the built-in aggregates, invertible ones the five whose
// states undo a merge.
var (
	allFuncs   = []agg.Func{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Avg, agg.Var, agg.Stddev, agg.Distinct}
	invertible = []agg.Func{agg.Count, agg.Sum, agg.Avg, agg.Var, agg.Stddev}
)

func TestDeltaAppendMatchesFullRecompute(t *testing.T) {
	for _, fn := range allFuncs {
		t.Run(fn.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			base := cubetest.RandomRelation(rng, 300, 3, 6)
			m, err := New(base, Config{Agg: fn, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			batch := Batch{Append: cubetest.RandomRelation(rng, 30, 3, 6).Tuples}
			rnd, err := m.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			if rnd.Mode != "delta" || rnd.Reason != "mergeable" {
				t.Fatalf("mode = %s/%s, want delta/mergeable", rnd.Mode, rnd.Reason)
			}
			if rnd.Changes == nil {
				t.Fatal("delta cycle returned nil Changes")
			}
			exactEqual(t, cube.Brute(combined(base, batch), fn), m.Result())
		})
	}
}

func TestDeltaDeleteMatchesFullRecompute(t *testing.T) {
	for _, fn := range invertible {
		t.Run(fn.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			base := cubetest.RandomRelation(rng, 300, 3, 5)
			m, err := New(base, Config{Agg: fn, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			batch := Batch{
				Append: cubetest.RandomRelation(rng, 20, 3, 5).Tuples,
				Delete: cloneTuples(base.Tuples[10:40]),
			}
			rnd, err := m.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			if rnd.Mode != "delta" {
				t.Fatalf("mode = %s (%s), want delta", rnd.Mode, rnd.Reason)
			}
			exactEqual(t, cube.Brute(combined(base, batch), fn), m.Result())
		})
	}
}

// TestBigSumMaintenanceIsExact: a sum past 2^53 is maintained in its integer
// state, not in its float64 final, where 2^53+1 plus 1 rounds to 2^53.
func TestBigSumMaintenanceIsExact(t *testing.T) {
	rel := relation.New([]string{"a", "b"}, "m")
	rel.AppendStrings([]string{"x", "u"}, 1<<53+1)
	rel.AppendStrings([]string{"y", "u"}, 3)
	m, err := New(rel, Config{Agg: agg.Sum, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := rel.Dict.Code(0, "x")
	u, _ := rel.Dict.Code(1, "u")
	batch := Batch{Append: []relation.Tuple{{Dims: []relation.Value{x, u}, Measure: 1}}}
	rnd, err := m.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Mode != "delta" {
		t.Fatalf("mode = %s/%s, want delta", rnd.Mode, rnd.Reason)
	}
	want := cube.BruteSpec(combined(rel, batch), cube.Spec{Agg: agg.Sum})
	if got := want.Groups[relation.GroupKey(0b11, []relation.Value{x, u})]; got != 1<<53+2 {
		t.Fatalf("brute force sums the group to %v, want 2^53+2", got)
	}
	exactEqual(t, want, m.Result())
}

// TestPublishedWhileApplying: walks of the published cube run beside cycles
// that merge into, and take deletes out of, the states they walk. Each walk
// is of its snapshot, so it sees one version whole; run under -race, it shows
// that no cycle writes a state a snapshot holds.
func TestPublishedWhileApplying(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cur := cubetest.RandomRelation(rng, 200, 3, 4)
	m, err := New(cur, Config{Agg: agg.Var, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	versions := []*cube.Result{cube.Brute(cur, agg.Var)}
	var batches []Batch
	for i := 0; i < 6; i++ {
		b := Batch{Append: cubetest.RandomRelation(rng, 15, 3, 4).Tuples, Delete: cloneTuples(cur.Tuples[i : i+5])}
		cur = combined(cur, b)
		batches, versions = append(batches, b), append(versions, cube.Brute(cur, agg.Var))
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			walk := m.Result()
			if !slices.ContainsFunc(versions, func(v *cube.Result) bool { return maps.Equal(v.Groups, walk.Groups) }) {
				t.Errorf("a walk of %d groups is no version of the cube", walk.Len())
				return
			}
		}
	}()
	for i, b := range batches {
		if rnd, err := m.Apply(b); err != nil || rnd.Mode != "delta" {
			t.Fatalf("cycle %d: %+v, %v", i+1, rnd, err)
		}
	}
	close(stop)
	<-done
	exactEqual(t, versions[len(versions)-1], m.Result())
}

func TestRebuildReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := cubetest.RandomRelation(rng, 200, 2, 4)
	appendBatch := Batch{Append: cubetest.RandomRelation(rng, 20, 2, 4).Tuples}

	// Every cycle is a delta that publishes its changes; deletes recompute
	// exactly under the aggregates whose states do not invert.
	deleteBatch := Batch{Append: appendBatch.Append, Delete: cloneTuples(base.Tuples[:5])}
	for _, c := range []struct {
		name   string
		fns    []agg.Func
		reason string
	}{
		{"deletes-invertible", invertible, "mergeable"},
		{"deletes-non-invertible", []agg.Func{agg.Min, agg.Max, agg.Distinct}, "recompute"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, fn := range c.fns {
				m, err := New(base, Config{Agg: fn, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				rnd, err := m.Apply(deleteBatch)
				if err != nil {
					t.Fatal(err)
				}
				if rnd.Mode != "delta" || rnd.Reason != c.reason || len(rnd.Changes) == 0 {
					t.Fatalf("%s: mode = %s/%s with %d changes, want delta/%s", fn.Name(), rnd.Mode, rnd.Reason, len(rnd.Changes), c.reason)
				}
				exactEqual(t, cube.Brute(combined(base, deleteBatch), fn), m.Result())
			}
		})
	}

	// A batch from a disjoint, heavily repeated domain brings new skewed
	// groups and shifted partition boundaries: the batch a sketch-drift
	// threshold used to rebuild for. It merges like any other, since nothing
	// reads the partitioning of the job that built the stored cube.
	t.Run("drift", func(t *testing.T) {
		m, err := New(base, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		shifted := cubetest.RandomRelation(rand.New(rand.NewSource(99)), 100, 2, 2)
		for i := range shifted.Tuples {
			for j := range shifted.Tuples[i].Dims {
				shifted.Tuples[i].Dims[j] += 1000
			}
		}
		batch := Batch{Append: shifted.Tuples}
		rnd, err := m.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Mode != "delta" || rnd.Reason != "mergeable" {
			t.Fatalf("mode = %s/%s, want delta/mergeable", rnd.Mode, rnd.Reason)
		}
		exactEqual(t, cube.Brute(combined(base, batch), agg.Count), m.Result())
	})
}

func TestMultiRoundMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := cubetest.RandomRelation(rng, 200, 3, 5)
	m, err := New(base, Config{Agg: agg.Sum, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cur := combined(base, Batch{})
	for round := 0; round < 5; round++ {
		batch := Batch{Append: cubetest.RandomRelation(rng, 25, 3, 5).Tuples}
		if round%2 == 1 && cur.N() > 30 {
			batch.Delete = cloneTuples(cur.Tuples[:10])
		}
		if _, err := m.Apply(batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cur = combined(cur, batch)
		exactEqual(t, cube.Brute(cur, agg.Sum), m.Result())
	}
	if m.Version() != 5 {
		t.Fatalf("Version = %d, want 5", m.Version())
	}
	if m.N() != cur.N() {
		t.Fatalf("N = %d, want %d", m.N(), cur.N())
	}
}

func TestIcebergPublishCrossesThreshold(t *testing.T) {
	rel := relation.New([]string{"a"}, "m")
	rel.AppendStrings([]string{"x"}, 1)
	rel.AppendStrings([]string{"x"}, 2)
	rel.AppendStrings([]string{"y"}, 3)
	m, err := New(rel, Config{Workers: 2, MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// y has one tuple: below MinSup, not published.
	res := m.Result()
	exactEqual(t, cube.BruteSpec(rel, cube.Spec{Agg: agg.Count, MinSup: 2}), res)

	// Appending a second y crosses it into the published cube.
	yCode, _ := rel.Dict.Code(0, "y")
	rnd, err := m.Apply(Batch{Append: []relation.Tuple{{Dims: []relation.Value{yCode}, Measure: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	sawSet := false
	for _, c := range rnd.Changes {
		if !c.Delete && c.Value == 2 {
			sawSet = true
		}
	}
	if !sawSet {
		t.Fatalf("expected a set-change for the group crossing MinSup, got %+v", rnd.Changes)
	}

	// Deleting both y tuples drops it back out.
	del := []relation.Tuple{
		{Dims: []relation.Value{yCode}, Measure: 3},
		{Dims: []relation.Value{yCode}, Measure: 9},
	}
	rnd, err = m.Apply(Batch{Delete: del})
	if err != nil {
		t.Fatal(err)
	}
	sawDel := false
	for _, c := range rnd.Changes {
		if c.Delete {
			sawDel = true
		}
	}
	if !sawDel {
		t.Fatalf("expected delete-changes for groups leaving the cube, got %+v", rnd.Changes)
	}
	final := &relation.Relation{Schema: rel.Schema, Dict: rel.Dict, Tuples: rel.Tuples[:2]}
	exactEqual(t, cube.BruteSpec(final, cube.Spec{Agg: agg.Count, MinSup: 2}), m.Result())
}

// TestResultSizedByPublishedCube: under an iceberg the maintainer holds what
// it publishes — the base is the published cube — and a Result allocates for
// that.
func TestResultSizedByPublishedCube(t *testing.T) {
	rel := cubetest.SkewedRelation(rand.New(rand.NewSource(3)), 3000, 4, 0.05, 1)
	m, err := New(rel, Config{Workers: 4, MinSup: 50})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := m.Result()
	runtime.ReadMemStats(&after)
	exactEqual(t, cube.BruteSpec(rel, cube.Spec{Agg: agg.Count, MinSup: 50}), res)
	if res.Len() == 0 || m.base.Len() != res.Len() {
		t.Fatalf("published %d groups, maintaining %d", res.Len(), m.base.Len())
	}
	// ~40 B of map slot per published group; 1 KiB each leaves room for
	// bucket rounding.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(res.Len())<<10; got > limit {
		t.Fatalf("Result allocated %d B to publish %d groups (limit %d B)", got, res.Len(), limit)
	}
}

// TestNewBuildsNoStateMap: on the iceberg_skew_spill serve shape New holds
// the 1,261 groups it publishes, of ≈ 1.19 M in the full cube, where its
// iceberg job's reducers wrote them, and allocates a tenth of an allocation
// per group beyond that job.
func TestNewBuildsNoStateMap(t *testing.T) {
	rel := data.GenBinomial(38000, 6, 0.5, 1)
	cfg := Config{Workers: 8, MinSup: 10, Seed: 1}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var m *Maintainer
	var err error
	inNew := mallocs(func() { m, err = New(rel, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	inJob := mallocs(func() {
		fn, _ := computeFunc(m.cfg)
		eng := mr.New(mr.Config{Workers: cfg.Workers, Seed: uint64(cfg.Seed)}, dfs.New(false))
		_, err = fn(eng, rel, cube.Spec{Agg: agg.Count, MinSup: cfg.MinSup})
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := m.base.Len()
	if want := m.Result().Len(); groups != want || want != 1261 || len(m.overlay) != 0 {
		t.Fatalf("maintaining %d groups under %d overlay entries to publish %d, want 1,261 under none", groups, len(m.overlay), want)
	}
	// A state map would pay an allocation per key.
	if inNew > inJob+uint64(groups)/10 {
		t.Fatalf("New made %d allocations, its cube job %d: the %d beyond the job are more than a tenth of the %d groups",
			inNew, inJob, inNew-inJob, groups)
	}
	t.Logf("New: %d allocations, of them the job's: %d; %d groups", inNew, inJob, groups)
}

func TestApplyStringsDictionaryCopyOnWrite(t *testing.T) {
	rel := relation.New([]string{"a", "b"}, "m")
	rel.AppendStrings([]string{"u", "v"}, 1)
	rel.AppendStrings([]string{"w", "v"}, 2)
	m, err := New(rel, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	oldDict := m.Relation().Dict
	oldCard := oldDict.Cardinality(0)

	if _, err := m.ApplyStrings([]Row{{Dims: []string{"new", "v"}, Measure: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if oldDict.Cardinality(0) != oldCard {
		t.Fatal("old dictionary mutated by ApplyStrings")
	}
	newDict := m.Relation().Dict
	if newDict == oldDict {
		t.Fatal("dictionary not swapped copy-on-write")
	}
	if _, ok := newDict.Code(0, "new"); !ok {
		t.Fatal("new value missing from swapped dictionary")
	}

	// Deletes must resolve against the dictionary.
	if _, err := m.ApplyStrings(nil, []Row{{Dims: []string{"nope", "v"}, Measure: 1}}); err == nil {
		t.Fatal("delete of unknown dictionary value must fail")
	}
	if _, err := m.ApplyStrings(nil, []Row{{Dims: []string{"u", "v"}, Measure: 1}}); err != nil {
		t.Fatal(err)
	}
	exactEqual(t, cube.Brute(m.Relation(), agg.Count), m.Result())
}

// TestDictionarySnapshotHoldsUnderIngest: a server keeps answering from the
// dictionary of the store it published while ingest cycles encode values new
// to every column into the next one. Every answer the old dictionary gives —
// the text of a code, the code of a text, of either entry kind, and the
// misses for the values the cycles add — must stay what it was, with a
// reader asking throughout; `go test -race` checks that nothing the reader
// touches is written.
func TestDictionarySnapshotHoldsUnderIngest(t *testing.T) {
	const cycles, rows = 12, 25
	rel := relation.New([]string{"a", "b", "c"}, "m")
	for i := range 200 {
		rel.AppendStrings([]string{strconv.Itoa(7 * i), "t" + strconv.Itoa(i%50), strconv.Itoa(-i % 90)}, 1)
	}
	m, err := New(rel, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	added := func(cycle, row int) []string {
		k := strconv.Itoa(100000 + 1000*cycle + row)
		return []string{k, "n" + k, "-" + k}
	}
	old := m.Relation().Dict
	var cards [3]int
	type textAnswer struct {
		col  int
		text string
		code relation.Value
		ok   bool
	}
	var texts []textAnswer
	var codes [3][]string // codes[col][v+1] is Text(col, v)
	for col := range 3 {
		cards[col] = old.Cardinality(col)
		for v := relation.Value(-1); int(v) < cards[col]+rows; v++ {
			codes[col] = append(codes[col], old.Text(col, v))
		}
		names := slices.Clone(codes[col][1 : cards[col]+1])
		for c := range cycles {
			for r := range rows {
				names = append(names, added(c, r)[col])
			}
		}
		for _, s := range names {
			v, ok := old.Code(col, s)
			texts = append(texts, textAnswer{col, s, v, ok})
		}
	}

	var done atomic.Bool
	failed := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass == 0 || !done.Load(); pass++ {
			for _, a := range texts {
				if v, ok := old.Code(a.col, a.text); v != a.code || ok != a.ok {
					failed <- fmt.Sprintf("pass %d: Code(%d, %q) = %d, %v; was %d, %v", pass, a.col, a.text, v, ok, a.code, a.ok)
					return
				}
			}
			for col := range 3 {
				for i, want := range codes[col] {
					if got := old.Text(col, relation.Value(i-1)); got != want {
						failed <- fmt.Sprintf("pass %d: Text(%d, %d) = %q; was %q", pass, col, i-1, got, want)
						return
					}
				}
			}
		}
	}()
	for c := range cycles {
		var batch []Row
		for r := range rows {
			batch = append(batch, Row{Dims: added(c, r), Measure: 1})
		}
		if _, err := m.ApplyStrings(batch, nil); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	select {
	case msg := <-failed:
		t.Fatal(msg)
	default:
	}
	for col := range 3 {
		if got, want := m.Relation().Dict.Cardinality(col), cards[col]+cycles*rows; got != want {
			t.Errorf("column %d: the maintained dictionary holds %d values, want %d", col, got, want)
		}
		if old.Cardinality(col) != cards[col] {
			t.Errorf("column %d: the old dictionary's Cardinality moved from %d to %d", col, cards[col], old.Cardinality(col))
		}
	}
}

func TestApplyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := cubetest.RandomRelation(rng, 50, 2, 4)
	m, err := New(base, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(Batch{}); err == nil {
		t.Fatal("empty batch must fail")
	}
	if _, err := m.Apply(Batch{Delete: []relation.Tuple{{Dims: []relation.Value{999, 999}, Measure: 0}}}); err == nil {
		t.Fatal("delete of absent tuple must fail")
	}
	if _, err := m.Apply(Batch{Append: []relation.Tuple{{Dims: []relation.Value{1}, Measure: 0}}}); err == nil {
		t.Fatal("append with wrong arity must fail")
	}
	if _, err := New(&relation.Relation{}, Config{}); err == nil {
		t.Fatal("empty relation must fail")
	}
	if _, err := New(base, Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

func TestFailedCycleLeavesStateUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := cubetest.RandomRelation(rng, 100, 2, 4)
	plan, err := mr.ParseFaultPlan("*:map:*:crash:0:*")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(base, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One good cycle first, so that there is an overlay to leave untouched.
	first := Batch{Append: cubetest.RandomRelation(rng, 10, 2, 4).Tuples}
	if _, err := m.Apply(first); err != nil {
		t.Fatal(err)
	}
	base = combined(base, first)
	before, beforeN := m.Result(), m.N()
	beforeBase, beforeOverlay := m.base, maps.Clone(m.overlay)
	if len(beforeOverlay) == 0 {
		t.Fatal("a delta cycle left the overlay empty")
	}

	// Arm a permanent fault: the crash fires on every attempt.
	m.cfg.Faults = plan
	batch := Batch{Append: cubetest.RandomRelation(rng, 10, 2, 4).Tuples}
	if _, err := m.Apply(batch); err == nil {
		t.Fatal("cycle under a permanent fault must fail")
	}
	if m.N() != beforeN {
		t.Fatalf("failed cycle changed relation: %d tuples, want %d", m.N(), beforeN)
	}
	if m.base != beforeBase || !maps.Equal(m.overlay, beforeOverlay) {
		t.Fatalf("failed cycle touched the state: base replaced %v, overlay %d entries (was %d)",
			m.base != beforeBase, len(m.overlay), len(beforeOverlay))
	}
	exactEqual(t, before, m.Result())
	if m.Version() != 1 {
		t.Fatalf("failed cycle recorded a round: Version = %d", m.Version())
	}

	// Disarm and retry: the same batch applies cleanly.
	m.cfg.Faults = nil
	if _, err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	exactEqual(t, cube.Brute(combined(base, batch), agg.Count), m.Result())
}

// maintainer returns a maintainer under fn over two-dimensional rows, each
// named (name, "r") with its measure.
func maintainer(t *testing.T, fn agg.Func, rows ...Row) *Maintainer {
	t.Helper()
	return maintainerOf(t, Config{Agg: fn, Workers: 2}, rows...)
}

// maintainerOf is maintainer under cfg.
func maintainerOf(t *testing.T, cfg Config, rows ...Row) *Maintainer {
	t.Helper()
	rel := relation.New([]string{"name", "region"}, "m")
	for _, r := range rows {
		rel.AppendStrings(r.Dims, r.Measure)
	}
	m, err := New(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// recomputed applies one cycle that must recompute, holds the published cube
// to brute force over the maintained relation and returns the cycle's change
// of each group (name, region) it names ("*" aggregates a dimension away).
func recomputed(t *testing.T, m *Maintainer, appends, deletes []Row, groups ...[2]string) []Change {
	t.Helper()
	return applied(t, m, "recompute", appends, deletes, groups...)
}

// applied is recomputed for a cycle of the given reason, under the
// maintainer's iceberg threshold.
func applied(t *testing.T, m *Maintainer, reason string, appends, deletes []Row, groups ...[2]string) []Change {
	t.Helper()
	rnd, err := m.ApplyStrings(appends, deletes)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Mode != "delta" || rnd.Reason != reason {
		t.Fatalf("cycle ran as %s/%s, want delta/%s", rnd.Mode, rnd.Reason, reason)
	}
	exactEqual(t, cube.BruteSpec(m.rel, cube.Spec{Agg: m.cfg.Agg, MinSup: m.cfg.MinSup}), m.Result())
	out := make([]Change, len(groups))
	for i, g := range groups {
		var mask uint32
		dims := make([]relation.Value, 2)
		for j, text := range g {
			if text != "*" {
				mask |= 1 << j
				dims[j], _ = m.rel.Dict.Code(j, text)
			}
		}
		key := relation.GroupKey(mask, dims)
		at := slices.IndexFunc(rnd.Changes, func(ch Change) bool { return ch.Key == key })
		if at < 0 {
			t.Fatalf("no change published for group %v", g)
		}
		out[i] = rnd.Changes[at]
	}
	return out
}

func row(name string, measure int64) Row { return Row{Dims: []string{name, "r"}, Measure: measure} }

// TestRecomputeRevealsRunnerUp: deleting a group's max publishes the
// runner-up, which no state of the stored cube holds, in the group and in
// every group above it that the deleted tuple's value led.
func TestRecomputeRevealsRunnerUp(t *testing.T) {
	m := maintainer(t, agg.Max, row("x", 5), row("x", 3), row("y", 4))
	chs := recomputed(t, m, nil, []Row{row("x", 5)}, [2]string{"x", "r"}, [2]string{"x", "*"}, [2]string{"*", "r"}, [2]string{"*", "*"})
	for i, want := range []float64{3, 3, 4, 4} {
		if chs[i].Delete || chs[i].Value != want {
			t.Fatalf("change %d: %+v, want %v set", i, chs[i], want)
		}
	}
}

// TestRecomputeDeletesEmptiedGroup: deleting a group's last tuple publishes
// a Delete change for it, where the recompute round outputs nothing.
func TestRecomputeDeletesEmptiedGroup(t *testing.T) {
	m := maintainer(t, agg.Min, row("x", 5), row("x", 3), row("y", 4))
	chs := recomputed(t, m, nil, []Row{row("y", 4)}, [2]string{"y", "r"}, [2]string{"y", "*"}, [2]string{"*", "r"})
	if !chs[0].Delete || !chs[1].Delete || chs[2].Delete || chs[2].Value != 3 {
		t.Fatalf("changes %+v, want two deletes and min 3 set", chs)
	}
	if st := m.overlay[chs[0].Key]; count(st) != 0 {
		t.Fatalf("the emptied group holds %d tuples, want a tombstone", count(st))
	}
}

// TestRecomputeAppendAndDeleteOneGroup: one batch under distinct appends to
// and deletes from the same group; its recomputed state holds the append and
// not the delete.
func TestRecomputeAppendAndDeleteOneGroup(t *testing.T) {
	m := maintainer(t, agg.Distinct, row("x", 1), row("x", 2), row("x", 2))
	chs := recomputed(t, m, []Row{row("x", 3)}, []Row{row("x", 1)}, [2]string{"x", "r"})
	if chs[0].Delete || chs[0].Value != 2 {
		t.Fatalf("change %+v, want 2 distinct values set", chs[0])
	}
}

// TestFailedRecomputeLeavesStateUntouched: a fault plan that exhausts the
// recompute round's attempts fails the cycle after its delta jobs succeeded,
// and leaves the maintainer, its relation and its version as they were.
// The plan crashes a map attempt at its tenth emit: the delta jobs' map
// tasks of two tuples never get there, and every map task of the round, which
// ships one state per group it recomputes, does: the four deletes touch ten
// groups, and each task sees all ten.
func TestFailedRecomputeLeavesStateUntouched(t *testing.T) {
	rows := make([]Row, 40)
	for i := range rows {
		rows[i] = row(fmt.Sprint("n", i%5), int64(i))
	}
	m := maintainer(t, agg.Min, rows...)
	if _, err := m.ApplyStrings([]Row{row("z", 1)}, nil); err != nil {
		t.Fatal(err)
	}
	before, tuples, dict := m.Result(), slices.Clone(m.rel.Tuples), m.rel.Dict
	beforeBase, beforeOverlay := m.base, maps.Clone(m.overlay)
	plan, err := mr.ParseFaultPlan("*:map:*:mid-emit@10:0:*")
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.Faults = plan
	deletes := []Row{row("n0", 0), row("n1", 1), row("n2", 2), row("n3", 3)}
	if _, err := m.ApplyStrings([]Row{row("w", 2)}, deletes); err == nil || !strings.Contains(err.Error(), "recompute round") {
		t.Fatalf("a cycle whose recompute round exhausts its attempts returned %v", err)
	}
	if m.Version() != 1 || m.base != beforeBase || !maps.Equal(m.overlay, beforeOverlay) || m.rel.Dict != dict {
		t.Fatalf("the failed cycle touched the maintainer: version %d, base replaced %v, overlay %d entries (were %d)",
			m.Version(), m.base != beforeBase, len(m.overlay), len(beforeOverlay))
	}
	if !slices.EqualFunc(m.rel.Tuples, tuples, func(a, b relation.Tuple) bool {
		return slices.Equal(a.Dims, b.Dims) && a.Measure == b.Measure
	}) {
		t.Fatal("the failed cycle changed the relation")
	}
	exactEqual(t, before, m.Result())
}

// TestIcebergAppendLiftsUnheldGroup: a group one tuple short of MinSup is
// not in the base, and an append that lifts it publishes its exact state —
// the tuples before the batch and the batch's — which the round recomputes.
func TestIcebergAppendLiftsUnheldGroup(t *testing.T) {
	m := maintainerOf(t, Config{Agg: agg.Sum, MinSup: 3, Workers: 2}, row("x", 5), row("x", 7), row("y", 1))
	if _, ok := m.base.Cursor().Seek([]byte(relation.GroupKey(1, []relation.Value{0, 0}))); ok {
		t.Fatal("the base holds (x,*), a group below MinSup")
	}
	chs := applied(t, m, "mergeable", []Row{row("x", 11)}, nil, [2]string{"x", "r"}, [2]string{"x", "*"}, [2]string{"*", "*"})
	for i, want := range []float64{23, 23, 24} {
		if chs[i].Delete || chs[i].Value != want {
			t.Fatalf("change %d: %+v, want %v set", i, chs[i], want)
		}
	}
	if n := count(m.overlay[chs[0].Key]); n != 3 {
		t.Fatalf("the lifted group holds %d tuples, want 3", n)
	}
}

// TestIcebergDeleteOfUnheldGroup: a delete-only batch that touches a group
// the iceberg base does not hold recomputes it, and publishes nothing for
// it; unpublished and not the base's, it leaves no state in the overlay.
func TestIcebergDeleteOfUnheldGroup(t *testing.T) {
	m := maintainerOf(t, Config{MinSup: 3, Workers: 2}, row("x", 1), row("x", 2), row("x", 3), row("y", 4))
	chs := applied(t, m, "mergeable", nil, []Row{row("y", 4)}, [2]string{"y", "r"}, [2]string{"y", "*"}, [2]string{"*", "r"})
	if !chs[0].Delete || !chs[1].Delete || chs[2].Delete || chs[2].Value != 3 {
		t.Fatalf("changes %+v, want two deletes and count 3 set", chs)
	}
	if st, ok := m.overlay[chs[0].Key]; ok {
		t.Fatalf("the emptied group holds %v in the overlay, want no entry", st)
	}
}

// TestIcebergRecomputeRevealsRunnerUp: under min and MinSup 3, deleting a
// published group's minimum publishes its runner-up.
func TestIcebergRecomputeRevealsRunnerUp(t *testing.T) {
	m := maintainerOf(t, Config{Agg: agg.Min, MinSup: 3, Workers: 2},
		row("x", 5), row("x", 3), row("x", 4), row("x", 6), row("y", 2), row("y", 8))
	chs := recomputed(t, m, nil, []Row{row("x", 3)}, [2]string{"x", "r"}, [2]string{"x", "*"}, [2]string{"*", "r"})
	for i, want := range []float64{4, 4, 2} {
		if chs[i].Delete || chs[i].Value != want {
			t.Fatalf("change %d: %+v, want %v set", i, chs[i], want)
		}
	}
}

// TestFailedIcebergRoundLeavesStateUntouched: under an iceberg an append
// batch recomputes the groups it lifts from below MinSup, and a fault plan
// that exhausts that round's attempts leaves the maintainer as it was. The
// plan crashes a map attempt at its tenth emit, which the append job's map
// tasks of five tuples never reach, and each of the round's, which sees all
// twenty groups it recomputes, does.
func TestFailedIcebergRoundLeavesStateUntouched(t *testing.T) {
	rows := make([]Row, 40)
	for i := range rows {
		rows[i] = row(fmt.Sprint("n", i%10), int64(i))
	}
	m := maintainerOf(t, Config{MinSup: 5, Workers: 2}, rows...)
	if _, err := m.ApplyStrings([]Row{row("z", 1)}, nil); err != nil {
		t.Fatal(err)
	}
	before, tuples, dict := m.Result(), slices.Clone(m.rel.Tuples), m.rel.Dict
	beforeBase, beforeOverlay := m.base, maps.Clone(m.overlay)
	plan, err := mr.ParseFaultPlan("*:map:*:mid-emit@10:0:*")
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.Faults = plan
	appends := make([]Row, 10)
	for i := range appends {
		appends[i] = row(fmt.Sprint("n", i), 100)
	}
	if _, err := m.ApplyStrings(appends, nil); err == nil || !strings.Contains(err.Error(), "recompute round") {
		t.Fatalf("a cycle whose recompute round exhausts its attempts returned %v", err)
	}
	if m.Version() != 1 || m.base != beforeBase || !maps.Equal(m.overlay, beforeOverlay) || m.rel.Dict != dict {
		t.Fatalf("the failed cycle touched the maintainer: version %d, base replaced %v, overlay %d entries (were %d)",
			m.Version(), m.base != beforeBase, len(m.overlay), len(beforeOverlay))
	}
	if !slices.EqualFunc(m.rel.Tuples, tuples, func(a, b relation.Tuple) bool {
		return slices.Equal(a.Dims, b.Dims) && a.Measure == b.Measure
	}) {
		t.Fatal("the failed cycle changed the relation")
	}
	exactEqual(t, before, m.Result())

	// Disarmed, the same batch publishes the ten groups it lifts.
	m.cfg.Faults = nil
	applied(t, m, "mergeable", appends, nil)
	if got := m.Result().Len(); got != before.Len()+20 {
		t.Fatalf("publishing %d groups, want the %d before and 20 lifted", got, before.Len())
	}
}

// TestDeleteTakesLastOccurrences: a tuple present twice can be deleted twice,
// one occurrence each time, and a third time fails; the relation keeps the
// other tuples in order.
func TestDeleteTakesLastOccurrences(t *testing.T) {
	m := maintainer(t, agg.Sum, row("x", 1), row("y", 2), row("x", 1), row("z", 3))
	if _, err := m.ApplyStrings(nil, []Row{row("x", 1), row("x", 1)}); err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 {
		t.Fatalf("%d tuples left, want 2", m.N())
	}
	_, err := m.ApplyStrings([]Row{row("w", 4)}, []Row{row("y", 2), row("x", 1)})
	if err == nil || !strings.Contains(err.Error(), "delete tuple 1 not present") {
		t.Fatalf("a third delete of a tuple present twice returned %v", err)
	}
	exactEqual(t, cube.Brute(m.rel, agg.Sum), m.Result())

	// The kept tuples stay in order; of equal ones, the last goes.
	m = maintainer(t, agg.Sum, row("x", 1), row("y", 2), row("x", 1), row("z", 3))
	if _, err := m.ApplyStrings(nil, []Row{row("x", 1)}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tp := range m.rel.Tuples {
		names = append(names, m.rel.Dict.Text(0, tp.Dims[0]))
	}
	if !slices.Equal(names, []string{"x", "y", "z"}) {
		t.Fatalf("after one delete of x the relation holds %v, want x, y, z", names)
	}
}

func TestMetricsAndTraceAnnotation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := cubetest.RandomRelation(rng, 100, 2, 4)
	tracer := &mr.SliceTracer{}
	m, err := New(base, Config{Agg: agg.Sum, Workers: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	batch := Batch{Append: cubetest.RandomRelation(rng, 10, 2, 4).Tuples}
	rnd, err := m.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}

	metrics := m.Metrics()
	if len(metrics.Rounds) == 0 {
		t.Fatal("no engine rounds recorded")
	}
	for i, r := range metrics.Rounds {
		if r.Maint == nil {
			t.Fatalf("round %d missing Maint annotation", i)
		}
	}
	last := metrics.Rounds[len(metrics.Rounds)-1].Maint
	if last.Round != 1 || last.Mode != "delta" || last.Appended != len(batch.Append) {
		t.Fatalf("bad Maint annotation: %+v", last)
	}
	if rnd.Metrics.Rounds[0].Maint.Mode != "delta" {
		t.Fatalf("cycle metrics not annotated: %+v", rnd.Metrics.Rounds[0].Maint)
	}

	var starts, ends int
	var seq []int64
	for _, ev := range tracer.Events {
		switch ev.Type {
		case mr.EvMaintStart:
			starts++
			seq = append(seq, ev.Seq)
			if ev.Mode == "" {
				t.Fatal("maint-start missing Mode")
			}
		case mr.EvMaintEnd:
			ends++
			seq = append(seq, ev.Seq)
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("maint events: %d starts, %d ends, want 2/2 (initial build + cycle)", starts, ends)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1]+1 {
			t.Fatalf("maintainer Seq not consecutive: %v", seq)
		}
	}
}

// TestOneJobPerBuildAndCycle: whatever the aggregate, a build and an
// append-only cycle run one cube job of the configured algorithm — as many
// engine rounds as under count, and the cycle is a delta — and the base run
// hands out brute force's tuple count at every key.
func TestOneJobPerBuildAndCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	base := cubetest.RandomRelation(rng, 200, 3, 5)
	batch := Batch{Append: cubetest.RandomRelation(rng, 20, 3, 5).Tuples}
	counts := cube.Brute(base, agg.Count)
	for _, a := range algo.Table {
		// rounds returns the engine rounds New and one cycle over batch add.
		rounds := func(fn agg.Func) (build, cycle int, mode string) {
			t.Helper()
			m, err := New(base, Config{Algorithm: a.Name, Agg: fn, Workers: 4})
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, fn.Name(), err)
			}
			groups := 0
			m.base.Each(func(key []byte, _ lattice.Mask, _ []relation.Value, _ float64, n int64) bool {
				if want := counts.Groups[string(key)]; float64(n) != want {
					t.Fatalf("%s/%s: group %x counts %d tuples, brute force %v", a.Name, fn.Name(), key, n, want)
				}
				groups++
				return true
			})
			if groups != counts.Len() {
				t.Fatalf("%s/%s: base has %d groups, brute force %d", a.Name, fn.Name(), groups, counts.Len())
			}
			build = len(m.Metrics().Rounds)
			rnd, err := m.Apply(batch)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, fn.Name(), err)
			}
			return build, len(rnd.Metrics.Rounds), rnd.Mode
		}
		build, deltaCycle, mode := rounds(agg.Count)
		if mode != "delta" {
			t.Fatalf("%s/count: the batch is applied as a %s", a.Name, mode)
		}
		for _, fn := range allFuncs[1:] {
			gotBuild, gotCycle, mode := rounds(fn)
			if mode != "delta" || gotBuild != build || gotCycle != deltaCycle {
				t.Errorf("%s/%s: New ran %d rounds and a %s cycle %d; count's New %d, its delta cycle %d",
					a.Name, fn.Name(), gotBuild, mode, gotCycle, build, deltaCycle)
			}
		}
	}
}

func TestSchemaMetricsDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	base := cubetest.RandomRelation(rng, 80, 2, 4)
	m, err := New(base, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(Batch{Append: cubetest.RandomRelation(rng, 8, 2, 4).Tuples}); err != nil {
		t.Fatal(err)
	}
	metrics := m.Metrics()
	var sb strings.Builder
	if err := mr.ExportMetrics(&sb, &metrics); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	want := fmt.Sprintf(`"schemaVersion": %d`, mr.MetricsSchemaVersion)
	if !strings.Contains(doc, want) {
		t.Fatalf("document not at schema v%d:\n%s", mr.MetricsSchemaVersion, doc[:200])
	}
	if !strings.Contains(doc, `"maint"`) || !strings.Contains(doc, `"mode": "delta"`) {
		t.Fatal("document missing maint annotations")
	}
}
