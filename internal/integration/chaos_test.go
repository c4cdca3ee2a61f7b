package integration

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
)

// TestChaosRandomFaultPlans is the randomized-plan soak (`make chaos`): a
// deterministic generator assembles multi-fault plans — task faults of every
// kind, whole-node crashes, speculative slack and hard task timeouts — and
// every run, at a random parallelism, must still produce the exact
// brute-force cube. All faults target first attempts only and at most one
// node dies, so MaxAttempts 4 always recovers; a failed run here is an
// engine bug, not an unlucky plan.
func TestChaosRandomFaultPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	const workers = 5
	kinds := []string{"crash", "mid-emit@2", "slow@2", "oom"}
	for iter := 0; iter < 25; iter++ {
		var parts []string
		for i, m := 0, 1+rng.Intn(3); i < m; i++ {
			phase := "map"
			if rng.Intn(2) == 1 {
				phase = "reduce"
			}
			task := "*"
			if rng.Intn(2) == 1 {
				task = fmt.Sprint(rng.Intn(workers + 1))
			}
			parts = append(parts, fmt.Sprintf("*:%s:%s:%s", phase, task, kinds[rng.Intn(len(kinds))]))
		}
		if rng.Intn(2) == 1 {
			parts = append(parts, fmt.Sprintf("*:node:%d:node-crash", rng.Intn(workers)))
		}
		spec := strings.Join(parts, ",")
		plan, err := mr.ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("iter %d: generated spec %q: %v", iter, spec, err)
		}
		cfg := mr.Config{Workers: workers, Seed: rng.Uint64(),
			Parallelism: 1 + rng.Intn(8), Faults: plan, MaxAttempts: 4}
		if rng.Intn(2) == 1 {
			cfg.SpeculativeSlack = 0.0005 // below the 2ms injected stall
		}
		if rng.Intn(2) == 1 {
			cfg.TaskTimeout = 0.001 // ditto: stalled attempts are killed
		}

		n := 50 + rng.Intn(250)
		d := 1 + rng.Intn(4)
		card := 1 + rng.Intn(9)
		rel := cubetest.RandomRelation(rand.New(rand.NewSource(rng.Int63())), n, d, card)
		want := cube.Brute(rel, agg.Count)
		a := allAlgorithms[rng.Intn(len(allAlgorithms))]
		label := fmt.Sprintf("iter %d: %s spec=%q slack=%v timeout=%v n=%d d=%d card=%d",
			iter, a.name, spec, cfg.SpeculativeSlack, cfg.TaskTimeout, n, d, card)

		eng := mr.New(cfg, dfs.New(false))
		run, err := a.fn(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := cube.CollectDFS(eng, run.OutputPrefix, d, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ok, diff := want.Equal(got); !ok {
			t.Errorf("%s: diverges from brute force: %s", label, diff)
		}
	}
}
