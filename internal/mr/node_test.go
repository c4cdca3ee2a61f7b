package mr

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestFaultKindNameRoundTrip walks the kind table itself, so adding a kind
// without wiring its name (or vice versa) fails here before anything else.
func TestFaultKindNameRoundTrip(t *testing.T) {
	for _, e := range faultKindNames {
		if got := e.kind.String(); got != e.name {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(e.kind), got, e.name)
		}
		k, err := FaultKindByName(e.name)
		if err != nil || k != e.kind {
			t.Errorf("FaultKindByName(%q) = %v, %v; want %v", e.name, k, err, e.kind)
		}
		for _, a := range e.aliases {
			k, err := FaultKindByName(a)
			if err != nil || k != e.kind {
				t.Errorf("alias FaultKindByName(%q) = %v, %v; want %v", a, k, err, e.kind)
			}
		}
	}
	_, err := FaultKindByName("meteor")
	if err == nil {
		t.Fatal("FaultKindByName accepted an unknown kind")
	}
	// The error must enumerate every canonical name (it is the user's only
	// discovery surface for the spec grammar).
	for _, e := range faultKindNames {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("unknown-kind error %q does not list %q", err, e.name)
		}
	}
	if got := FaultKind(99).String(); got != "FaultKind(99)" {
		t.Errorf("out-of-range kind String() = %q", got)
	}
}

func TestPlaceNode(t *testing.T) {
	const nodes = 4
	seen := map[int]bool{}
	for task := 0; task < 64; task++ {
		n := PlaceNode(7, 0, PhaseMap, task, 0, nodes)
		if n < 0 || n >= nodes {
			t.Fatalf("PlaceNode(task %d) = %d, outside [0,%d)", task, n, nodes)
		}
		if n != PlaceNode(7, 0, PhaseMap, task, 0, nodes) {
			t.Fatalf("PlaceNode(task %d) is not deterministic", task)
		}
		seen[n] = true
	}
	if len(seen) < 2 {
		t.Errorf("64 tasks all placed on the same node: %v", seen)
	}
	// A retried attempt must be able to move off its node.
	moved := false
	for task := 0; task < 16; task++ {
		if PlaceNode(7, 0, PhaseMap, task, 1, nodes) != PlaceNode(7, 0, PhaseMap, task, 0, nodes) {
			moved = true
		}
	}
	if !moved {
		t.Error("attempt index never changes placement")
	}
	if PlaceNode(7, 0, PhaseMap, 3, 0, 1) != 0 || PlaceNode(7, 0, PhaseMap, 3, 0, 0) != 0 {
		t.Error("a single (or absent) failure domain must place everything on node 0")
	}
}

func TestDeadNodes(t *testing.T) {
	eng := New(Config{Workers: 4,
		Faults: mustPlan(t, "0:node:1:node-crash,2:node:*:node-crash,0:node:9:node-crash")}, nil)
	if d := eng.deadNodes(1, 4); d != nil {
		t.Errorf("round 1 has no node faults, got %v", d)
	}
	d := eng.deadNodes(0, 4)
	if !reflect.DeepEqual(d, []bool{false, true, false, false}) {
		t.Errorf("round 0 dead = %v, want only node 1 (node 9 is out of range)", d)
	}
	d = eng.deadNodes(2, 4)
	if !reflect.DeepEqual(d, []bool{true, true, true, true}) {
		t.Errorf("round 2 wildcard dead = %v, want all", d)
	}
	if d := New(Config{Workers: 4}, nil).deadNodes(0, 4); d != nil {
		t.Errorf("no fault plan, got %v", d)
	}
}

func TestPlaceLive(t *testing.T) {
	if n := placeLive(2, nil, 4); n != 2 {
		t.Errorf("nil dead: %d", n)
	}
	dead := []bool{false, true, true, false}
	if n := placeLive(0, dead, 4); n != 0 {
		t.Errorf("live node re-placed: %d", n)
	}
	if n := placeLive(1, dead, 4); n != 3 {
		t.Errorf("forward probe from 1 = %d, want 3", n)
	}
	if n := placeLive(3, []bool{true, false, true, true}, 4); n != 1 {
		t.Errorf("wrap-around probe from 3 = %d, want 1", n)
	}
	if n := placeLive(2, []bool{true, true, true, true}, 4); n != -1 {
		t.Errorf("all dead = %d, want -1", n)
	}
}

func TestNodeKill(t *testing.T) {
	eng := New(Config{Workers: 4, Seed: 7}, nil)
	if _, err := eng.placeAttempt(0, PhaseReduce, 0, 0, nil, 4); err != nil {
		t.Errorf("no dead nodes: %v", err)
	}
	// Kill attempt 0 exactly where its raw placement lands; later attempts
	// are re-placed and survive as long as one node lives.
	home := PlaceNode(7, 0, PhaseReduce, 0, 0, 4)
	dead := make([]bool, 4)
	dead[home] = true
	_, err := eng.placeAttempt(0, PhaseReduce, 0, 0, dead, 4)
	if !isKillError(err) || !strings.Contains(err.Error(), "crashed") {
		t.Errorf("attempt 0 on a dead node: %v", err)
	}
	if _, err := eng.placeAttempt(0, PhaseReduce, 0, 1, dead, 4); err != nil {
		t.Errorf("attempt 1 must be re-placed on a live node: %v", err)
	}
	allDead := []bool{true, true, true, true}
	_, err = eng.placeAttempt(0, PhaseReduce, 0, 1, allDead, 4)
	if !isKillError(err) || !strings.Contains(err.Error(), "no live node") {
		t.Errorf("attempt 1 with no live node: %v", err)
	}

	if isKillError(&FaultError{}) || !isKillError(&killError{}) {
		t.Error("isKillError confuses fault and kill errors")
	}
}

// TestNodeCrashReexecutesLostMaps is the recovery regression: crash the node
// holding a completed map task's output and require the engine to re-execute
// it — visibly in the counters, invisibly in the output.
func TestNodeCrashReexecutesLostMaps(t *testing.T) {
	base := runFaulted(t, nil, 1)
	if base.err != nil {
		t.Fatal(base.err)
	}
	// Crash the node that map task 0's attempt-0 output is stored on (the
	// harness engine: Workers 4 = 4 nodes, Seed 7, round 0).
	victim := PlaceNode(7, 0, PhaseMap, 0, 0, 4)
	spec := fmt.Sprintf("0:node:%d:node-crash", victim)
	for _, par := range []int{1, 8} {
		got := runFaultedCfg(t, Config{Workers: 4, Seed: 7, Parallelism: par,
			Faults: mustPlan(t, spec)})
		if got.err != nil {
			t.Fatalf("par=%d: %v", par, got.err)
		}
		if got.metrics.MapReexecutions == 0 {
			t.Fatalf("par=%d: node %d crashed but no map was re-executed", par, victim)
		}
		if got.metrics.FetchFailures == 0 {
			t.Errorf("par=%d: reducers observed no fetch failures", par)
		}
		if got.metrics.Mappers[0].Reexecutions != 1 || got.metrics.Mappers[0].Attempts < 2 {
			t.Errorf("par=%d: lost map task 0: reexecutions=%d attempts=%d",
				par, got.metrics.Mappers[0].Reexecutions, got.metrics.Mappers[0].Attempts)
		}
		if got.metrics.WastedBytes == 0 {
			t.Errorf("par=%d: lost map output not charged to WastedBytes", par)
		}
		if !reflect.DeepEqual(stripRecovery(got.metrics), stripRecovery(base.metrics)) {
			t.Errorf("par=%d: metrics diverge from fault-free run beyond recovery accounting", par)
		}
		if got.sum != base.sum || got.recs != base.recs {
			t.Errorf("par=%d: DFS output diverges: sum %d/%d recs %d/%d",
				par, got.sum, base.sum, got.recs, base.recs)
		}
		if !reflect.DeepEqual(got.output, base.output) {
			t.Errorf("par=%d: collected output diverges from fault-free run", par)
		}
	}
}

// TestPermanentNodeFailure kills every failure domain: with nowhere left to
// re-execute, the round must fail by exhausting attempts on engine kills —
// reported as a plain error, not an injected FaultError.
func TestPermanentNodeFailure(t *testing.T) {
	got := runFaulted(t, mustPlan(t, "*:node:*:node-crash"), 1)
	if got.err == nil {
		t.Fatal("expected an all-nodes crash to fail the round")
	}
	if isFaultError(got.err) {
		t.Errorf("exhausted kills surfaced as a FaultError: %v", got.err)
	}
	if !isKillError(got.err) {
		t.Errorf("error %v does not wrap the engine kill", got.err)
	}
	var ke *killError
	if errors.As(got.err, &ke) && ke.reason != "no live node" {
		t.Errorf("kill reason = %q, want %q", ke.reason, "no live node")
	}
	if !got.metrics.Failed || !strings.Contains(got.metrics.FailReason, "attempts") {
		t.Errorf("Failed=%v FailReason=%q", got.metrics.Failed, got.metrics.FailReason)
	}
}
