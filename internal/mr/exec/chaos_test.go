package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
)

// TestChaosProcKillSoak is the randomized kill soak (`make chaos-proc`):
// while an algorithm runs on the proc backend, a chaos goroutine SIGKILLs
// worker processes at random moments — mid-map, mid-reduce, between
// rounds, whenever. The contract under arbitrary worker loss is graceful
// degradation, not magic: every run must either recover to the exact
// brute-force cube (retries re-place onto surviving nodes; MaxAttempts 6
// gives the placement hash room) or fail with a plain error — never hang,
// never return a wrong or truncated cube — and must never leak worker
// processes.
func TestChaosProcKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real worker processes")
	}
	rng := rand.New(rand.NewSource(2016))
	const workers = 5
	recovered, failed := 0, 0
	for iter := 0; iter < 10; iter++ {
		n := 100 + rng.Intn(300)
		d := 1 + rng.Intn(3)
		card := 1 + rng.Intn(6)
		rel := cubetest.RandomRelation(rand.New(rand.NewSource(rng.Int63())), n, d, card)
		want := cube.Brute(rel, agg.Count)
		a := equivAlgorithms[rng.Intn(len(equivAlgorithms))]
		kills := 1 + rng.Intn(3)
		delays := make([]time.Duration, kills)
		targets := make([]int, kills)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(40)) * time.Millisecond
			targets[i] = rng.Intn(workers)
		}
		label := fmt.Sprintf("iter %d: %s n=%d d=%d card=%d kills=%v", iter, a.name, n, d, card, targets)

		p := NewProc()
		killerDone := make(chan struct{})
		go func() {
			defer close(killerDone)
			for i := 0; i < kills; i++ {
				time.Sleep(delays[i])
				p.killWorker(targets[i])
			}
		}()

		eng := mr.New(mr.Config{Workers: workers, Seed: rng.Uint64(),
			Parallelism: 1 + rng.Intn(8), MaxAttempts: 6, Executor: p}, dfs.New(false))
		run, err := a.fn(eng, rel, cube.Spec{Agg: agg.Count})
		<-killerDone
		if err != nil {
			// Graceful degradation: a plain, explanatory failure is a legal
			// outcome when the kills outran the retry budget.
			if err.Error() == "" {
				t.Errorf("%s: failed with an empty error", label)
			}
			failed++
		} else {
			got, cerr := cube.CollectDFS(eng, run.OutputPrefix, d, cube.Spec{Agg: agg.Count})
			if cerr != nil {
				t.Fatalf("%s: %v", label, cerr)
			}
			if ok, diff := want.Equal(got); !ok {
				t.Errorf("%s: recovered cube diverges from brute force: %s", label, diff)
			}
			recovered++
		}

		closeAndCheck(t, p, label+": ")
	}
	t.Logf("kill soak: %d runs recovered byte-identically, %d failed plainly", recovered, failed)
}

// TestContextCancelProc cancels a run on the proc backend mid-flight (the
// SIGINT shape): the engine must unwind with the context's error — or
// finish, if the run outraced the timer — and Close must reap every worker
// process either way.
func TestContextCancelProc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	rel := cubetest.RandomRelation(rand.New(rand.NewSource(7)), 400, 3, 5)
	for _, delay := range []time.Duration{0, 2 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel() // pre-cancelled: no round may start, no worker may spawn
		} else {
			time.AfterFunc(delay, cancel)
		}
		p := NewProc()
		eng := mr.New(mr.Config{Workers: 5, Seed: 7, Parallelism: 4,
			MaxAttempts: 4, Executor: p, Context: ctx}, dfs.New(false))
		_, err := equivAlgorithms[0].fn(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("delay %v: err = %v, want context.Canceled or success", delay, err)
		}
		if delay == 0 && err == nil {
			t.Error("pre-cancelled run reported success")
		}
		closeAndCheck(t, p, fmt.Sprintf("delay %v: ", delay))
		cancel()
	}
}
