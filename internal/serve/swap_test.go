package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// TestReadWhileUpdate is the read-while-update correctness gate (run under
// -race by `make race` and CI): 16 query workers hammer a batched, cached
// service while an updater applies a chain of delta patches through Swap.
// Every response must equal the brute-force answer of SOME version the
// client could legitimately observe — the version published before the query
// was issued, through the one being swapped in as the response returned —
// never a mix of versions and never one older than the pre-query snapshot.
//
// The version window is sound because the updater bumps the shared counter
// only AFTER Swap returns: a worker reading vb has the guarantee that
// Swap(vb) completed, so the pointer moved and the cache was flushed — a
// response older than vb is exactly the stale-cache bug Swap's ordering
// forbids. The upper bound is va+1 because Swap(va+1) may have landed while
// the counter still read va.
func TestReadWhileUpdate(t *testing.T) {
	const versions = 8
	rng := rand.New(rand.NewSource(97))
	tl := newTupleList(rng, 250, 3, 4)
	witness := []relation.Value{0, 0, 0}
	tl.rows = append(tl.rows, witness) // present from version 0

	// Evolve the relation: every version appends one witness copy (its
	// count is distinct per version — a strong staleness detector) plus
	// random churn.
	brutes := make([]*cube.Result, versions+1)
	stores := make([]*Store, versions+1)
	brutes[0] = cube.Brute(tl.relation(), agg.Count)
	st, err := Build(tl.relation(), brutes[0])
	if err != nil {
		t.Fatal(err)
	}
	stores[0] = st
	for v := 1; v <= versions; v++ {
		for i := 0; i < 2; i++ { // delete non-witness rows
			j := rng.Intn(len(tl.rows))
			if relation.ComparePacked(tl.rows[j], witness) == 0 {
				continue
			}
			tl.rows = append(tl.rows[:j], tl.rows[j+1:]...)
		}
		row := make([]relation.Value, tl.d)
		for j := range row {
			row[j] = relation.Value(rng.Intn(5))
		}
		tl.rows = append(tl.rows, row, append([]relation.Value(nil), witness...))
		brutes[v] = cube.Brute(tl.relation(), agg.Count)
		stores[v], err = stores[v-1].ApplyPatch(diffPatch(t, brutes[v-1], brutes[v]), nil)
		if err != nil {
			t.Fatalf("version %d: ApplyPatch: %v", v, err)
		}
	}

	d := tl.d
	full := lattice.Full(d)
	m := &Counters{}
	svc := NewService(stores[0], Config{
		CacheEntries: 512,
		BatchWindow:  200 * time.Microsecond,
		MaxBatch:     32,
		Counters:     m,
	})
	defer svc.Close()

	var ver atomic.Int64 // latest version whose Swap has COMPLETED
	var done atomic.Bool

	// pointOK reports whether a point response matches brute version v.
	pointOK := func(v int, mask lattice.Mask, packed []relation.Value, res Result) bool {
		want, found := brutes[v].Lookup(mask, relation.GroupVals(nil, uint32(mask), packed, d))
		return res.Found == found && (!found || res.Value == want)
	}
	// sliceOK reports whether a whole-cuboid slice matches version v
	// exactly — a response mixing two versions fails every v.
	sliceOK := func(v int, mask lattice.Mask, res Result) bool {
		want := brutes[v].Cuboid(mask)
		if len(res.Groups) != len(want) {
			return false
		}
		for i, g := range res.Groups {
			if relation.ComparePacked(g.Packed, want[i].Packed) != 0 || g.Value != want[i].Value {
				return false
			}
		}
		return true
	}
	// rollupOK: the witness chain has every step in every version.
	rollupOK := func(v int, res Result) bool {
		if len(res.Groups) != d+1 {
			return false
		}
		for _, g := range res.Groups {
			want, found := brutes[v].Lookup(g.Mask, relation.GroupVals(nil, uint32(g.Mask), g.Packed, d))
			if !found || g.Value != want {
				return false
			}
		}
		return true
	}

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + id)))
			for i := 0; ; i++ {
				if done.Load() && i >= 50 {
					return
				}
				vb := int(ver.Load())
				var q Query
				var check func(v int, res Result) bool
				switch rng.Intn(4) {
				case 0: // witness point: value strictly version-dependent
					q = Query{Op: OpPoint, Mask: full, Packed: witness}
					check = func(v int, res Result) bool { return pointOK(v, full, witness, res) }
				case 1: // random point on a random cuboid of version vb
					groups := brutes[vb].Cuboid(full)
					g := groups[rng.Intn(len(groups))]
					q = Query{Op: OpPoint, Mask: full, Packed: g.Packed}
					packed := g.Packed
					check = func(v int, res Result) bool { return pointOK(v, full, packed, res) }
				case 2: // whole-cuboid slice: must be internally one version
					mask := lattice.Mask(rng.Intn(int(full))) + 1
					q = Query{Op: OpSlice, Mask: mask}
					check = func(v int, res Result) bool { return sliceOK(v, mask, res) }
				default: // witness rollup chain
					q = Query{Op: OpRollup, Mask: full, Packed: witness}
					check = rollupOK
				}
				res, err := svc.Query(q)
				if err != nil {
					t.Errorf("worker %d: query %+v: %v", id, q, err)
					return
				}
				va := int(ver.Load())
				hi := va + 1
				if hi > versions {
					hi = versions
				}
				ok := false
				for v := vb; v <= hi && !ok; v++ {
					ok = check(v, res)
				}
				if !ok {
					t.Errorf("worker %d: query %+v: response matches no version in [%d, %d] (stale or torn read)",
						id, q, vb, hi)
					return
				}
			}
		}(w)
	}

	// The updater: swap each version in, then publish its number.
	for v := 1; v <= versions; v++ {
		time.Sleep(2 * time.Millisecond)
		svc.Swap(stores[v])
		ver.Store(int64(v))
	}
	done.Store(true)
	wg.Wait()

	if got := m.Swaps(); got != versions {
		t.Fatalf("swaps counter = %d, want %d", got, versions)
	}
	// Post-swap staleness check: with all swaps complete, the cache may
	// only answer from the final snapshot.
	wantFinal, _ := brutes[versions].Lookup(full, relation.GroupVals(nil, uint32(full), witness, d))
	for i := 0; i < 20; i++ {
		res, err := svc.Query(Query{Op: OpPoint, Mask: full, Packed: witness})
		if err != nil || !res.Found || res.Value != wantFinal {
			t.Fatalf("post-swap witness query %d = %+v, %v (want %v): cache served a stale snapshot",
				i, res, err, wantFinal)
		}
	}
	if m.CacheHits() == 0 {
		t.Error("no cache hits: the stress run never exercised the cache path")
	}
}
