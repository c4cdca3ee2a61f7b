package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	spalgo "github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
)

// FuzzCubeEquivalence fuzzes the relation shape and a fault coordinate and
// checks that SP-Cube, executed under the injected fault, still produces the
// exact brute-force cube. The fuzzer explores the space the differential
// oracle samples: distributions from all-duplicates to near-distinct, and
// faults across rounds, phases, tasks and kinds — including whole-node
// crashes (lost-map-output re-execution) and speculative races against
// injected stragglers.
func FuzzCubeEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint16(60), uint8(0), uint8(0))
	f.Add(int64(7), uint8(3), uint8(1), uint16(200), uint8(1), uint8(5))
	f.Add(int64(9), uint8(4), uint8(6), uint16(120), uint8(2), uint8(9))
	f.Add(int64(3), uint8(1), uint8(2), uint16(30), uint8(3), uint8(2))
	f.Add(int64(5), uint8(2), uint8(4), uint16(90), uint8(4), uint8(1))     // node-crash
	f.Add(int64(11), uint8(3), uint8(2), uint16(150), uint8(132), uint8(4)) // slow + speculation
	f.Fuzz(func(t *testing.T, seed int64, dRaw, cardRaw uint8, nRaw uint16, kindRaw, targetRaw uint8) {
		d := 1 + int(dRaw)%4       // 1..4 dimensions
		card := 1 + int(cardRaw)%8 // all-duplicates .. moderately distinct
		n := 1 + int(nRaw)%300
		const workers = 4

		kinds := []string{"crash", "mid-emit@2", "slow@1", "oom", "node-crash"}
		kind := kinds[int(kindRaw)%len(kinds)]
		var spec string
		var slack float64
		if kind == "node-crash" {
			// Kill one failure domain per round: its stored map output is
			// re-executed and its reduce attempts re-placed.
			spec = fmt.Sprintf("*:node:%d:node-crash", int(targetRaw)%workers)
		} else {
			phase := "map"
			if targetRaw&1 == 1 {
				phase = "reduce"
			}
			task := "*"
			if idx := int(targetRaw>>1) % (workers + 2); idx <= workers {
				// spcube's skew round uses workers+1 reducers, so task indices
				// up to `workers` are all reachable.
				task = fmt.Sprint(idx)
			}
			spec = fmt.Sprintf("*:%s:%s:%s", phase, task, kind)
			if kind == "slow@1" && kindRaw&0x80 != 0 {
				// Race a speculative backup against the injected straggler
				// (1ms stall > 0.5ms slack).
				slack = 0.0005
			}
		}
		plan, err := mr.ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("generated spec %q: %v", spec, err)
		}

		rel := cubetest.RandomRelation(rand.New(rand.NewSource(seed)), n, d, card)
		want := cube.Brute(rel, agg.Count)

		eng := mr.New(mr.Config{Workers: workers, Seed: 13,
			Faults: plan, MaxAttempts: 2, SpeculativeSlack: slack}, dfs.New(false))
		run, err := spalgo.Compute(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatalf("spec %q n=%d d=%d card=%d: %v", spec, n, d, card, err)
		}
		got, err := cube.CollectDFS(eng, run.OutputPrefix, d, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := want.Equal(got); !ok {
			t.Errorf("spec %q n=%d d=%d card=%d: faulted SP-Cube diverges from brute force: %s",
				spec, n, d, card, diff)
		}
	})
}
