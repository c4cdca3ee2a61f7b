package spcube

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// referenceWalk is Algorithm 3's mapper with no shortcut: every tuple, fully
// skewed or not, visits its lattice node by node — one op charged, one
// sketch probe and one partial-aggregate update per skewed node. It is what
// the mapper's once-per-row path for fully-skewed tuples must be
// indistinguishable from, in output and in every metric.
func referenceWalk(d int, f agg.Func, sk *sketch.Sketch) func(*mr.MapCtx, relation.Tuple) {
	bfs := lattice.BFSOrder(d)
	return func(ctx *mr.MapCtx, t relation.Tuple) {
		ts := ctx.State().(*taskState)
		ts.marks.Reset()
		for _, mask := range bfs {
			if ts.marks.Marked(mask) {
				continue
			}
			ctx.ChargeOps(1)
			if sk.IsSkewed(mask, relation.Project(t.Dims, uint32(mask))) {
				key := string(prefixSkew) + relation.GroupKey(uint32(mask), t.Dims)
				if ts.skewAgg[key] == nil {
					ts.skewAgg[key] = f.NewState()
				}
				ts.skewAgg[key].Add(t.Measure)
				ts.marks.Mark(mask)
				continue
			}
			key := append([]byte{prefixGroup}, relation.GroupKey(uint32(mask), t.Dims)...)
			ctx.EmitBytes(key, relation.EncodeTuple(nil, t))
			lattice.SupersetsIncl(mask, d, ts.marks.Mark)
		}
	}
}

// TestFastPathChargesLikeTheWalk pins the fast path to Algorithm 3's cost:
// a fully-skewed tuple skips the walk but must still count every op, emit
// and partial update the walk would, since simulated time is a function of
// those counts and every committed figure reads it. The round's metrics,
// every task's included, must equal the reference walk's bit for bit, and
// the DFS output byte for byte.
func TestFastPathChargesLikeTheWalk(t *testing.T) {
	const k = 4
	rel := data.GenBinomial(6000, 4, 0.5, 7)
	for _, f := range []agg.Func{agg.Count, agg.Var} {
		spec := cube.Spec{Agg: f, MinSup: 2}
		built, err := sketch.Build(cubetest.NewEngine(k), rel, 3)
		if err != nil {
			t.Fatal(err)
		}
		sk := built.Sketch
		if !sk.HasSkews(lattice.Full(rel.D())) {
			t.Fatal("no fully-skewed tuple: the fast path would not fire")
		}
		run := func(reference bool) (mr.RoundMetrics, string, uint64) {
			eng := cubetest.NewEngine(k)
			job := cubeJob(rel.D(), k, spec, sk, Options{}, "out/charge/")
			if reference {
				eff, _ := spec.Effective()
				job.MapTuple = referenceWalk(rel.D(), eff, sk)
			}
			res, err := eng.RunTuples(job, rel.Tuples)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(&mr.JobMetrics{Rounds: []mr.RoundMetrics{res.Metrics}})
			if err == nil {
				doc, err = mr.StripVolatile(doc)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res.Metrics, string(doc), eng.FS.TotalChecksum("out/charge/")
		}
		got, gotDoc, gotSum := run(false)
		want, wantDoc, wantSum := run(true)
		if gotSum != wantSum {
			t.Errorf("%s: DFS output differs from the reference walk's", f.Name())
		}
		for i := range want.Mappers {
			if g, w := got.Mappers[i].CPUSeconds, want.Mappers[i].CPUSeconds; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: mapper %d CPUSeconds = %v (%#x), reference walk %v (%#x)",
					f.Name(), i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		if g, w := got.SimSeconds, want.SimSeconds; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: SimSeconds = %v (%#x), reference walk %v (%#x)", f.Name(), g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if gotDoc != wantDoc {
			t.Errorf("%s: round metrics differ from the reference walk's:\n got %s\nwant %s", f.Name(), gotDoc, wantDoc)
		}
	}
}

// fullSkewRelation builds n copies of the d-dimensional tuple hot, then
// extra rows that share hot's first two dimensions and differ in every
// other.
func fullSkewRelation(d, n, extra int) (rel *relation.Relation, hot []relation.Value) {
	names := make([]string, d)
	hot = make([]relation.Value, d)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
		hot[i] = relation.Value(7 + i)
	}
	rel = &relation.Relation{Schema: relation.Schema{DimNames: names, MeasureName: "m"}}
	for i := 0; i < n; i++ {
		rel.Append(hot, int64(i%9+1))
	}
	row := make([]relation.Value, d)
	for i := 0; i < extra; i++ {
		row[0], row[1] = hot[0], hot[1]
		for j := 2; j < d; j++ {
			row[j] = relation.Value(100 + i%3 + j)
		}
		rel.Append(row, int64(i%5))
	}
	return rel, hot
}

// TestCorrectUnderInjectedFullMaskSkew is the deterministic companion of
// TestCorrectUnderArbitrarySketch for the fast path's two verdicts. The
// sketch marks the hot tuple's finest group skewed and then either all of
// its projections (the tuple is aggregated once per row and pushed down at
// flush) or all but its second dimension's (not down-closed: the verdict
// fails and the tuple takes the walk, or that group would reach the reducers
// twice — from hot's push-down and from the other rows' walk). In both,
// rows that are only partially skewed — they share hot's first two
// dimensions — run through the same map tasks, so the push-down merges into
// entries the walk created.
func TestCorrectUnderInjectedFullMaskSkew(t *testing.T) {
	for _, d := range []int{3, 6} {
		rel, hot := fullSkewRelation(d, 40, 25)
		for _, downClosed := range []bool{true, false} {
			sk := sketch.New(d, 2)
			for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
				if !downClosed && mask == 0b10 {
					continue
				}
				sk.AddSkew(mask, relation.Project(hot, uint32(mask)))
			}
			for _, minSup := range []int{0, 3} {
				for _, name := range []string{"count", "sum", "min", "max", "avg", "var", "stddev", "distinct"} {
					f, err := agg.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					spec := cube.Spec{Agg: f, MinSup: minSup}
					// k = 1: one map task sees every row; k = 2: the hot
					// rows straddle both.
					for _, k := range []int{1, 2} {
						eng := cubetest.NewEngine(k)
						if _, err := runCubeRound(eng, rel, spec, sk, Options{}, "out/full/"); err != nil {
							t.Fatal(err)
						}
						got, err := cube.CollectDFS(eng, "out/full/", d, spec)
						if err != nil {
							t.Fatal(err)
						}
						if ok, diff := cube.BruteSpec(rel, spec).Equal(got); !ok {
							t.Errorf("d=%d downClosed=%v minSup=%d %s k=%d: %s", d, downClosed, minSup, name, k, diff)
						}
						if recs := eng.FS.TotalRecords("out/full/"); recs != int64(got.Len()) {
							t.Errorf("d=%d downClosed=%v minSup=%d %s k=%d: %d records for %d groups", d, downClosed, minSup, name, k, recs, got.Len())
						}
					}
				}
			}
		}
	}
}

// TestFastPathIdenticalUnderRetry: a retried map attempt starts from a fresh
// task state, the fully-skewed table included — rows aggregated by the
// failed attempt must not be counted again.
func TestFastPathIdenticalUnderRetry(t *testing.T) {
	rel := data.GenBinomial(3000, 4, 0.5, 11)
	run := func(faults string) (*cube.Result, *cube.Run, uint64) {
		t.Helper()
		plan, err := mr.ParseFaultPlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		eng := mr.New(mr.Config{Workers: 4, Faults: plan}, dfs.New(false))
		res, info, err := cubetest.RunAndCollect(eng, Compute, rel, cube.Spec{Agg: agg.Avg})
		if err != nil {
			t.Fatal(err)
		}
		return res, info, eng.FS.TotalChecksum(info.OutputPrefix)
	}
	clean, cleanRun, cleanSum := run("")
	if cleanRun.SkewedGroups < 1<<4 {
		t.Fatalf("only %d skewed groups: no fully-skewed tuple", cleanRun.SkewedGroups)
	}
	if ok, diff := cube.Brute(rel, agg.Avg).Equal(clean); !ok {
		t.Fatalf("fault-free run wrong vs brute force: %s", diff)
	}
	for _, faults := range []string{"*:map:*:mid-emit@2", "*:map:*:crash"} {
		got, gotRun, gotSum := run(faults)
		if gotRun.Metrics.Totals().Retries == 0 {
			t.Fatalf("%s: fault plan did not fire", faults)
		}
		if ok, diff := clean.Equal(got); !ok {
			t.Errorf("%s: output diverges from the fault-free run: %s", faults, diff)
		}
		if gotSum != cleanSum {
			t.Errorf("%s: DFS bytes diverge from the fault-free run", faults)
		}
		if g, w := gotRun.Metrics.Totals().ShuffleBytes, cleanRun.Metrics.Totals().ShuffleBytes; g != w {
			t.Errorf("%s: ShuffleBytes = %d, want %d", faults, g, w)
		}
	}
}
