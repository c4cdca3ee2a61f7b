package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
)

// TestConcurrentMixedQueries is the serving layer's concurrency gate (run
// under -race by `make race` and CI): many goroutines issue a mix of point,
// slice, rollup and top-k queries — some identical (exercising the cache and
// single-flight path), some distinct same-cuboid points (exercising batch
// coalescing) — and every answer is checked against the brute-force cube.
// The cache-hit and coalesced counters must both end up non-zero.
func TestConcurrentMixedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := cubetest.RandomRelation(rng, 600, 3, 4)
	res, _, err := cubetest.RunAndCollect(cubetest.NewEngine(4), naive.Compute, rel, cube.Spec{})
	if err != nil {
		t.Fatalf("computing cube: %v", err)
	}
	st, err := Build(rel, res)
	if err != nil {
		t.Fatal(err)
	}
	brute := cube.Brute(rel, agg.Count)
	d := rel.D()
	full := lattice.Full(d)

	m := &Counters{}
	svc := NewService(st, Config{
		CacheEntries: 1024,
		BatchWindow:  2 * time.Millisecond,
		MaxBatch:     64,
		Counters:     m,
	})
	defer svc.Close()

	// Precomputed read-only expectations, shared by all workers.
	fullGroups := brute.Cuboid(full)
	sliceCount := make(map[string]int) // mask|prefix -> group count
	for mask := lattice.Mask(0); mask <= full; mask++ {
		for _, g := range brute.Cuboid(mask) {
			for p := 0; p <= len(g.Packed); p++ {
				sliceCount[fmt.Sprintf("%d|%v", mask, g.Packed[:p])]++
			}
		}
	}
	check := func(id int, what string, ok bool, detail string) {
		if !ok {
			t.Errorf("worker %d: %s: %s", id, what, detail)
		}
	}

	const workers = 16
	const iters = 60
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			<-start
			for i := 0; i < iters; i++ {
				switch rng.Intn(4) {
				case 0: // random point on the full cuboid
					g := fullGroups[rng.Intn(len(fullGroups))]
					res, err := svc.Query(Query{Op: OpPoint, Mask: full, Packed: g.Packed})
					check(id, "point", err == nil && res.Found && res.Value == g.Value,
						fmt.Sprintf("%v -> %+v, %v (want %v)", g.Packed, res, err, g.Value))
				case 1: // the same top-k every time: after the first answer, a cache hit
					res, err := svc.Query(Query{Op: OpTopK, Mask: full, K: 5})
					ok := err == nil && len(res.Groups) == 5
					for j := 1; ok && j < len(res.Groups); j++ {
						ok = res.Groups[j-1].Value >= res.Groups[j].Value
					}
					check(id, "topk", ok, fmt.Sprintf("%+v, %v", res, err))
				case 2: // slice with a random prefix
					g := fullGroups[rng.Intn(len(fullGroups))]
					p := rng.Intn(d + 1)
					res, err := svc.Query(Query{Op: OpSlice, Mask: full, Packed: g.Packed[:p]})
					want := sliceCount[fmt.Sprintf("%d|%v", full, g.Packed[:p])]
					ok := err == nil && len(res.Groups) == want
					for _, sg := range res.Groups {
						v, found := brute.Lookup(sg.Mask, relation.GroupVals(nil, uint32(sg.Mask), sg.Packed, d))
						ok = ok && found && v == sg.Value
					}
					check(id, "slice", ok,
						fmt.Sprintf("prefix %v -> %d groups, %v (want %d)", g.Packed[:p], len(res.Groups), err, want))
				default: // rollup from a full-cuboid group to the apex
					g := fullGroups[rng.Intn(len(fullGroups))]
					res, err := svc.Query(Query{Op: OpRollup, Mask: full, Packed: g.Packed})
					ok := err == nil && len(res.Groups) == d+1
					for _, sg := range res.Groups {
						v, found := brute.Lookup(sg.Mask, relation.GroupVals(nil, uint32(sg.Mask), sg.Packed, d))
						ok = ok && found && v == sg.Value
					}
					check(id, "rollup", ok, fmt.Sprintf("%v -> %+v, %v", g.Packed, res, err))
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	// Coalescing needs distinct same-cuboid points arriving inside one batch
	// window as cache *misses*. Fire barrier-synchronized bursts of not-yet
	// cached point queries (one distinct group per goroutine) until a batch
	// coalesces; every group is checked against brute force along the way.
	burstGroups := allGroups(brute)
	for off := 0; m.Coalesced() == 0 && off+workers <= len(burstGroups); off += workers {
		var bwg sync.WaitGroup
		barrier := make(chan struct{})
		for i := 0; i < workers; i++ {
			bwg.Add(1)
			go func(g cube.Group) {
				defer bwg.Done()
				<-barrier
				res, err := svc.Query(Query{Op: OpPoint, Mask: g.Mask, Packed: g.Packed})
				if err != nil || !res.Found || res.Value != g.Value {
					t.Errorf("burst point %b/%v = %+v, %v (want %v)", g.Mask, g.Packed, res, err, g.Value)
				}
			}(burstGroups[off+i])
		}
		close(barrier)
		bwg.Wait()
	}

	if m.CacheHits() == 0 {
		t.Error("no cache hits despite repeated identical queries")
	}
	if m.Coalesced() == 0 {
		t.Error("no coalesced queries despite concurrent same-cuboid points")
	}
	stats := m.Snapshot()
	var total int64
	for _, n := range stats.Queries {
		total += n
	}
	if want := int64(workers * iters); total < want {
		t.Errorf("query counter total %d, want at least %d", total, want)
	}
}

// allGroups flattens the brute cube into one deterministic list of groups,
// largest cuboids first so barrier bursts draw distinct same-mask keys.
func allGroups(brute *cube.Result) []cube.Group {
	var out []cube.Group
	masks := make([]lattice.Mask, 0)
	for mask := lattice.Mask(0); mask <= lattice.Mask(uint32(1)<<uint(brute.D))-1; mask++ {
		masks = append(masks, mask)
	}
	// Highest level first: the full cuboid has the most distinct groups.
	for lvl := brute.D; lvl >= 0; lvl-- {
		for _, mask := range masks {
			if mask.Level() == lvl {
				out = append(out, brute.Cuboid(mask)...)
			}
		}
	}
	return out
}
