package mr

import (
	"errors"
	"fmt"
)

// PlaceNode returns the failure domain (simulated machine) in [0, nodes)
// that attempt `attempt` of task `task` in `phase` of engine round `round`
// is placed on — and, for map attempts, where the attempt's output is
// stored until the shuffle. Placement is a pure FNV-1a hash of the
// coordinates salted by the engine seed, so it is identical at any
// Config.Parallelism and across re-runs: a node-crash fault deterministically
// loses the same map outputs and kills the same reduce attempts every time.
// Including the attempt index means a re-scheduled attempt moves to a
// different node, like a real scheduler avoiding a bad machine.
func PlaceNode(seed uint64, round int, phase Phase, task, attempt, nodes int) int {
	if nodes <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*uint(i))))) * fnvPrime64
		}
	}
	mix(seed)
	mix(uint64(round))
	mix(uint64(phase))
	mix(uint64(task))
	mix(uint64(attempt))
	return int(h % uint64(nodes))
}

// deadNodes returns the per-node dead flags from the round's node-crash
// faults, or nil when none targets the round. The crash is modeled at the
// round's shuffle barrier: map attempts complete first (their stored output
// is then lost), reduce attempts placed on a dead node are killed.
func (e *Engine) deadNodes(round, nodes int) []bool {
	if e.Cfg.Faults == nil {
		return nil
	}
	var dead []bool
	for i := range e.Cfg.Faults.Faults {
		f := &e.Cfg.Faults.Faults[i]
		if f.Kind != FaultNodeCrash {
			continue
		}
		if f.Round != AnyIndex && f.Round != round {
			continue
		}
		if dead == nil {
			dead = make([]bool, nodes)
		}
		if f.Task == AnyIndex {
			for n := range dead {
				dead[n] = true
			}
		} else if f.Task < nodes {
			dead[f.Task] = true
		}
	}
	return dead
}

// placeLive re-places a hashed node slot onto a live node by probing
// forward from it (deterministic, parallelism-invariant), or -1 when every
// node is dead and the attempt cannot be scheduled at all.
func placeLive(node int, dead []bool, nodes int) int {
	if dead == nil || !dead[node] {
		return node
	}
	for i := 1; i < nodes; i++ {
		if c := (node + i) % nodes; !dead[c] {
			return c
		}
	}
	return -1
}

// placeAttempt resolves the node an attempt runs on against a down set —
// the round's simulated dead nodes — and returns the kill for an attempt
// that cannot be placed. Attempt 0 keeps its raw placement — it was
// already running when the node died mid-round, so it dies with it; later
// attempts are re-placed on live nodes (placeLive) and only die when none
// is left. A nil down set places on the raw hash, unconditionally.
func (e *Engine) placeAttempt(round int, phase Phase, task, attempt int, down []bool, nodes int) (int, error) {
	node := PlaceNode(e.Cfg.Seed, round, phase, task, attempt, nodes)
	if down == nil {
		return node, nil
	}
	if attempt > 0 {
		node = placeLive(node, down, nodes)
		if node < 0 {
			return -1, &killError{reason: "no live node", phase: phase, task: task, attempt: attempt}
		}
	}
	if down[node] {
		return node, &killError{reason: fmt.Sprintf("node %d crashed", node), phase: phase, task: task, attempt: attempt}
	}
	return node, nil
}

// isKillError reports whether err is an engine-initiated kill (retryable,
// but not an injected fault).
func isKillError(err error) bool {
	var ke *killError
	return errors.As(err, &ke)
}
