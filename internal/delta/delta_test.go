package delta

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
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

func TestDeltaAppendMatchesFullRecompute(t *testing.T) {
	for _, fn := range []agg.Func{agg.Count, agg.Sum, agg.Min, agg.Max} {
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
	for _, fn := range []agg.Func{agg.Count, agg.Sum} {
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

func TestRebuildReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := cubetest.RandomRelation(rng, 200, 2, 4)
	appendBatch := Batch{Append: cubetest.RandomRelation(rng, 20, 2, 4).Tuples}

	t.Run("aggregate", func(t *testing.T) {
		m, err := New(base, Config{Agg: agg.Avg, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := m.Apply(appendBatch)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Mode != "rebuild" || rnd.Reason != "aggregate" {
			t.Fatalf("mode = %s/%s, want rebuild/aggregate", rnd.Mode, rnd.Reason)
		}
		if rnd.Changes != nil {
			t.Fatal("rebuild cycle must return nil Changes")
		}
		exactEqual(t, cube.Brute(combined(base, appendBatch), agg.Avg), m.Result())
	})

	t.Run("deletes-non-invertible", func(t *testing.T) {
		m, err := New(base, Config{Agg: agg.Min, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		batch := Batch{Delete: cloneTuples(base.Tuples[:5])}
		rnd, err := m.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Mode != "rebuild" || rnd.Reason != "deletes" {
			t.Fatalf("mode = %s/%s, want rebuild/deletes", rnd.Mode, rnd.Reason)
		}
		exactEqual(t, cube.Brute(combined(base, batch), agg.Min), m.Result())
	})

	t.Run("forced", func(t *testing.T) {
		m, err := New(base, Config{Workers: 4, RebuildThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := m.Apply(appendBatch)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Mode != "rebuild" || rnd.Reason != "forced" {
			t.Fatalf("mode = %s/%s, want rebuild/forced", rnd.Mode, rnd.Reason)
		}
		exactEqual(t, cube.Brute(combined(base, appendBatch), agg.Count), m.Result())
	})

	t.Run("drift", func(t *testing.T) {
		m, err := New(base, Config{Workers: 4, RebuildThreshold: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		// A batch from a disjoint, heavily repeated domain: new skewed
		// groups and shifted partition boundaries.
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
		if rnd.Mode != "rebuild" || rnd.Reason != "drift" {
			t.Fatalf("mode = %s/%s (drift %v), want rebuild/drift", rnd.Mode, rnd.Reason, rnd.Drift)
		}
		if rnd.Drift <= 0 {
			t.Fatalf("drift = %v, want > 0", rnd.Drift)
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

// TestResultSizedByPublishedCube: the maintainer holds the full cube, but a
// Result of an iceberg cube publishing under 1% of it must allocate for what
// it publishes, not for what is maintained.
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
	maintained := m.base.vals.Len()
	if res.Len() == 0 || res.Len()*100 >= maintained {
		t.Fatalf("published %d of %d maintained groups: not a <1%% iceberg", res.Len(), maintained)
	}
	// ~40 B of map slot per published group; 1 KiB each leaves room for
	// bucket rounding and is far below presizing for the maintained cube.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(res.Len())<<10; got > limit {
		t.Fatalf("Result allocated %d B to publish %d of %d groups (limit %d B)", got, res.Len(), maintained, limit)
	}
}

// TestNewBuildsNoStateMap is the converse: on the iceberg_skew_spill serve
// shape New leaves the ≈ 1.19 M maintained groups where the job's reducers
// wrote them. The cube job allocates by the million whoever runs it, so the
// bound is on what New allocates beyond the job: a tenth of an allocation
// per group, where a state map paid one per key.
func TestNewBuildsNoStateMap(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a 1.19 M-group cube twice")
	}
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
		_, err = fn(eng, rel, cube.Spec{Agg: agg.Count})
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := uint64(m.base.vals.Len())
	if groups < 1_100_000 || len(m.overlay) != 0 {
		t.Fatalf("maintaining %d groups under %d overlay entries, want ≈ 1.19 M under none", groups, len(m.overlay))
	}
	if inNew > inJob+groups/10 {
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
	plan, err := mr.ParseFaultPlan("*:map:*:crash")
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

	// Arm a permanent fault (MaxAttempts 1: the first crash is final).
	m.cfg.Faults = plan
	m.cfg.MaxAttempts = 1
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
	m.cfg.MaxAttempts = 0
	if _, err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	exactEqual(t, cube.Brute(combined(base, batch), agg.Count), m.Result())
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

// TestDriftSequencePinned pins the rebuild signal bit for bit. The drift of a
// cycle is a function of two exact sketches — the base relation's, rebuilt on
// every rebuild, and the batch's — so whatever builds them must keep each
// value below, recorded from the commit before sketch.BuildExact became
// Algorithm 2 at α = 1, β = m. The sequence crosses both modes: cycle 4
// rebuilds on drift and the later cycles measure against the rebuilt base.
func TestDriftSequencePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := cubetest.SkewedRelation(rng, 2000, 3, 0.4, 3)
	m, err := New(base, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	shift := func(rel *relation.Relation) []relation.Tuple {
		for _, tu := range rel.Tuples {
			for j := range tu.Dims {
				tu.Dims[j] += 1000
			}
		}
		return rel.Tuples
	}
	steps := []struct {
		batch        Batch
		mode, reason string
		drift        uint64 // math.Float64bits
	}{
		{Batch{Append: cubetest.SkewedRelation(rng, 100, 3, 0.4, 3).Tuples}, "delta", "mergeable", 0},
		{Batch{Append: cubetest.RandomRelation(rng, 150, 3, 50).Tuples}, "delta", "mergeable", 0x3fc5555555555555},
		{Batch{Delete: cloneTuples(base.Tuples[:40])}, "delta", "mergeable", 0},
		{Batch{Append: shift(cubetest.RandomRelation(rng, 300, 3, 2))}, "rebuild", "drift", 0x3feb6db6db6db6db},
		{Batch{Append: cubetest.SkewedRelation(rng, 120, 3, 0.6, 2).Tuples, Delete: cloneTuples(base.Tuples[40:60])}, "delta", "mergeable", 0x3fc3cf3cf3cf3cf2},
		{Batch{Append: shift(cubetest.RandomRelation(rng, 80, 3, 2))}, "rebuild", "drift", 0x3feaaaaaaaaaaaab},
	}
	for i, st := range steps {
		rnd, err := m.Apply(st.batch)
		if err != nil {
			t.Fatalf("cycle %d: %v", i+1, err)
		}
		if rnd.Mode != st.mode || rnd.Reason != st.reason || math.Float64bits(rnd.Drift) != st.drift {
			t.Errorf("cycle %d: %s/%s drift %v (%#x), want %s/%s drift %#x", i+1,
				rnd.Mode, rnd.Reason, rnd.Drift, math.Float64bits(rnd.Drift), st.mode, st.reason, st.drift)
		}
	}
}
