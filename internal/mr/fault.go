package mr

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Phase identifies the half of a MapReduce round a task belongs to.
type Phase int

const (
	PhaseMap Phase = iota
	PhaseReduce
	// PhaseNode is the pseudo-phase of node-level faults: the fault's Task
	// selector names a failure domain (one per Config.Workers machine) instead of a task.
	PhaseNode
)

// String returns the phase's name.
func (p Phase) String() string {
	switch p {
	case PhaseMap:
		return "map"
	case PhaseReduce:
		return "reduce"
	case PhaseNode:
		return "node"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// PhaseByName resolves a phase by name.
func PhaseByName(name string) (Phase, error) {
	switch name {
	case "map", "m":
		return PhaseMap, nil
	case "reduce", "red", "r":
		return PhaseReduce, nil
	case "node":
		return PhaseNode, nil
	}
	return 0, fmt.Errorf("mr: unknown phase %q (want map, reduce or node)", name)
}

// FaultKind enumerates the injectable task failures. All are modeled on the
// failure classes a real Hadoop task tracker reports.
type FaultKind int

const (
	// FaultCrashBeforeEmit kills the attempt before the task body runs —
	// the process died on startup; nothing was emitted.
	FaultCrashBeforeEmit FaultKind = iota
	// FaultCrashMidEmit kills the attempt on its Nth emitted record
	// (Fault.AfterEmits, default 1), leaving partial output the engine
	// must discard.
	FaultCrashMidEmit
	// FaultSlowTask delays the attempt by Fault.Delay of real wall-clock
	// time (a straggler); the attempt then completes normally.
	FaultSlowTask
	// FaultTransientOOM kills the attempt before the task body runs with
	// an out-of-memory flavored reason — the transient kind that a retry
	// on a less loaded machine survives, as opposed to the deterministic
	// reducer-overflow failure of FailOnReducerOOM, which is never
	// retried.
	FaultTransientOOM
	// FaultNodeCrash kills a whole failure domain (a simulated worker
	// machine) at the round's shuffle barrier: completed map output stored
	// on the node becomes unfetchable (reducers observe fetch failures and
	// the engine re-executes the lost map tasks), and reduce attempts
	// placed on the node are killed and re-placed on live nodes. Node
	// faults use the "node" pseudo-phase and their Task selector names the
	// node index.
	FaultNodeCrash
)

// faultKindNames is the single source of the kind↔name mapping: it drives
// String, FaultKindByName (canonical name plus aliases) and the unknown-kind
// error text, so the three cannot drift apart as kinds are added. Order
// follows the FaultKind constants.
var faultKindNames = []struct {
	kind    FaultKind
	name    string
	aliases []string
}{
	{FaultCrashBeforeEmit, "crash", []string{"crash-before-emit"}},
	{FaultCrashMidEmit, "mid-emit", []string{"mid", "crash-mid-emit"}},
	{FaultSlowTask, "slow", []string{"slow-task"}},
	{FaultTransientOOM, "oom", []string{"transient-oom"}},
	{FaultNodeCrash, "node-crash", []string{"nodecrash"}},
}

// String returns the kind's spec name.
func (k FaultKind) String() string {
	for _, e := range faultKindNames {
		if e.kind == k {
			return e.name
		}
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultKindByName resolves a fault kind by spec name (canonical names and
// aliases).
func FaultKindByName(name string) (FaultKind, error) {
	names := make([]string, len(faultKindNames))
	for i, e := range faultKindNames {
		if name == e.name {
			return e.kind, nil
		}
		for _, a := range e.aliases {
			if name == a {
				return e.kind, nil
			}
		}
		names[i] = e.name
	}
	return 0, fmt.Errorf("mr: unknown fault kind %q (want %s)", name, strings.Join(names, ", "))
}

// AnyIndex is the wildcard for Fault.Round and Fault.Task.
const AnyIndex = -1

// AllAttempts makes Fault.Count match every attempt from Fault.Attempt on.
const AllAttempts = -1

// Fault deterministically targets one or more task attempts. A fault fires
// on attempt a of task t in phase p of engine round r iff every selector
// matches: Round ∈ {r, AnyIndex}, Phase == p, Task ∈ {t, AnyIndex}, and
// a ∈ [Attempt, Attempt+Count). Node faults (Phase == PhaseNode, Kind ==
// FaultNodeCrash) are matched per round, not per attempt: Task names the
// crashed node and Attempt/Count are unused.
type Fault struct {
	// Round is the 0-based index of the engine round (the engine counts
	// every executed job, across multi-round algorithms); AnyIndex
	// matches all rounds.
	Round int
	// Phase selects map or reduce tasks, or PhaseNode for node faults.
	Phase Phase
	// Task is the task index within the phase (for node faults: the node
	// index); AnyIndex matches all.
	Task int
	// Attempt is the first affected attempt, 0-based.
	Attempt int
	// Count is how many consecutive attempts are affected (default 1);
	// AllAttempts affects every attempt from Attempt on, which makes the
	// task fail permanently.
	Count int
	// Kind is the injected failure.
	Kind FaultKind
	// AfterEmits is the 1-based emit index FaultCrashMidEmit dies on
	// (default 1: crash on the first emitted record).
	AfterEmits int64
	// Delay is FaultSlowTask's added wall-clock latency (default 2ms).
	Delay time.Duration
}

func (f *Fault) matches(round int, phase Phase, task, attempt int) bool {
	if f.Phase != phase {
		return false
	}
	if f.Round != AnyIndex && f.Round != round {
		return false
	}
	if f.Task != AnyIndex && f.Task != task {
		return false
	}
	if attempt < f.Attempt {
		return false
	}
	count := f.Count
	if count == 0 {
		count = 1
	}
	return count == AllAttempts || attempt < f.Attempt+count
}

func (f *Fault) afterEmits() int64 {
	if f.AfterEmits <= 0 {
		return 1
	}
	return f.AfterEmits
}

func (f *Fault) delay() time.Duration {
	if f.Delay <= 0 {
		return 2 * time.Millisecond
	}
	return f.Delay
}

// String renders the fault in the spec syntax ParseFaultPlan accepts.
func (f *Fault) String() string {
	var b strings.Builder
	writeIdx := func(i int) {
		if i == AnyIndex {
			b.WriteByte('*')
		} else {
			b.WriteString(strconv.Itoa(i))
		}
	}
	writeIdx(f.Round)
	b.WriteByte(':')
	b.WriteString(f.Phase.String())
	b.WriteByte(':')
	writeIdx(f.Task)
	b.WriteByte(':')
	b.WriteString(f.Kind.String())
	switch {
	case f.Kind == FaultCrashMidEmit && f.AfterEmits > 1:
		fmt.Fprintf(&b, "@%d", f.AfterEmits)
	case f.Kind == FaultSlowTask && f.Delay > 0:
		fmt.Fprintf(&b, "@%d", int64(f.Delay/time.Millisecond))
	}
	if f.Attempt != 0 || (f.Count != 0 && f.Count != 1) {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(f.Attempt))
		if f.Count != 0 && f.Count != 1 {
			b.WriteByte(':')
			if f.Count == AllAttempts {
				b.WriteByte('*')
			} else {
				b.WriteString(strconv.Itoa(f.Count))
			}
		}
	}
	return b.String()
}

// FaultPlan is a deterministic fault-injection schedule: the first fault
// whose selectors match an attempt fires on it. A nil plan injects nothing.
type FaultPlan struct {
	Faults []Fault
}

// find returns the first fault targeting the given attempt, or nil.
func (p *FaultPlan) find(round int, phase Phase, task, attempt int) *Fault {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		if p.Faults[i].matches(round, phase, task, attempt) {
			return &p.Faults[i]
		}
	}
	return nil
}

// String renders the plan in the spec syntax ParseFaultPlan accepts.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Faults) == 0 {
		return ""
	}
	parts := make([]string, len(p.Faults))
	for i := range p.Faults {
		parts[i] = p.Faults[i].String()
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses the CLI fault spec: a comma-separated list of
// faults, each
//
//	round:phase:task:kind[:attempt[:count]]
//
// where round and task are 0-based indices or "*" (any), phase is "map" or
// "reduce", kind is crash | mid-emit | slow | oom optionally suffixed with
// "@n" (mid-emit: crash on the n-th emitted record; slow: delay in
// milliseconds), attempt is the first affected attempt (default 0), and
// count is how many consecutive attempts fail (default 1, "*" = all, i.e. a
// permanent failure).
//
// Node faults use the "node" pseudo-phase with the node-crash kind and no
// attempt/count selectors:
//
//	round:node:N:node-crash
//
// where N is the crashed failure domain (or "*" for all — which leaves no
// live node to re-execute on and fails the round once attempts run out).
// Examples:
//
//	1:reduce:0:mid-emit        round 1, reduce task 0 crashes mid-emit once
//	*:map:*:oom                first attempt of every map task OOMs
//	0:map:2:crash:0:*          map task 2 of round 0 fails permanently
//	*:reduce:1:slow@10         reduce task 1 is delayed 10ms every round
//	*:node:2:node-crash        node 2 dies at every round's shuffle barrier
//
// An empty spec yields a nil plan (no injection).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var plan FaultPlan
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, fmt.Errorf("mr: fault %q: %w", part, err)
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, nil
	}
	return &plan, nil
}

func parseFault(s string) (Fault, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 4 || len(fields) > 6 {
		return Fault{}, fmt.Errorf("want round:phase:task:kind[:attempt[:count]], got %d fields", len(fields))
	}
	var f Fault
	var err error
	if f.Round, err = parseIndex(fields[0]); err != nil {
		return Fault{}, fmt.Errorf("round: %w", err)
	}
	if f.Phase, err = PhaseByName(fields[1]); err != nil {
		return Fault{}, err
	}
	if f.Task, err = parseIndex(fields[2]); err != nil {
		return Fault{}, fmt.Errorf("task: %w", err)
	}
	kind := fields[3]
	var arg int64 = -1
	if at := strings.IndexByte(kind, '@'); at >= 0 {
		v, err := strconv.ParseInt(kind[at+1:], 10, 64)
		if err != nil || v < 1 {
			return Fault{}, fmt.Errorf("kind argument %q: want a positive integer", kind[at+1:])
		}
		arg, kind = v, kind[:at]
	}
	if f.Kind, err = FaultKindByName(kind); err != nil {
		return Fault{}, err
	}
	if arg > 0 {
		switch f.Kind {
		case FaultCrashMidEmit:
			f.AfterEmits = arg
		case FaultSlowTask:
			f.Delay = time.Duration(arg) * time.Millisecond
		default:
			return Fault{}, fmt.Errorf("kind %s takes no @ argument", f.Kind)
		}
	}
	// Node faults pair the node pseudo-phase with the node-crash kind and
	// are matched per round, so attempt/count selectors make no sense.
	if (f.Kind == FaultNodeCrash) != (f.Phase == PhaseNode) {
		if f.Kind == FaultNodeCrash {
			return Fault{}, fmt.Errorf("node-crash faults use the node phase: round:node:N:node-crash")
		}
		return Fault{}, fmt.Errorf("the node phase only takes node-crash faults")
	}
	if f.Kind == FaultNodeCrash && len(fields) > 4 {
		return Fault{}, fmt.Errorf("node-crash faults take no attempt/count selectors")
	}
	if len(fields) >= 5 {
		a, err := strconv.Atoi(fields[4])
		if err != nil || a < 0 {
			return Fault{}, fmt.Errorf("attempt %q: want a non-negative integer", fields[4])
		}
		f.Attempt = a
	}
	if len(fields) == 6 {
		if fields[5] == "*" {
			f.Count = AllAttempts
		} else {
			c, err := strconv.Atoi(fields[5])
			if err != nil || c < 1 {
				return Fault{}, fmt.Errorf("count %q: want a positive integer or *", fields[5])
			}
			f.Count = c
		}
	}
	return f, nil
}

func parseIndex(s string) (int, error) {
	if s == "*" {
		return AnyIndex, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%q: want a non-negative integer or *", s)
	}
	return v, nil
}

// faultSignal is the panic value an injected crash raises inside a task
// attempt; the engine's attempt runner recovers it and converts it into a
// retryable attempt failure. Any other panic propagates unchanged.
type faultSignal struct {
	fault *Fault
}

// FaultError is the failure an injected fault produced, reported when a
// task exhausts Config.MaxAttempts. errors.As distinguishes it from the
// engine's deterministic failures (reducer OOM, partition range errors),
// which are never retried.
type FaultError struct {
	Kind    FaultKind
	Phase   Phase
	Task    int
	Attempt int
}

// Error describes the injected failure.
func (e *FaultError) Error() string {
	reason := "injected " + e.Kind.String()
	if e.Kind == FaultTransientOOM {
		reason = "injected transient out of memory"
	}
	return fmt.Sprintf("%s in %s task %d (attempt %d)", reason, e.Phase, e.Task, e.Attempt)
}

// injector arms at most one fault for one task attempt. A nil injector (the
// common, fault-free case) is inert: all methods are nil-safe.
type injector struct {
	fault   *Fault
	phase   Phase
	task    int
	attempt int
	emits   int64
}

// injectorFor returns the armed injector for an attempt, or nil when no
// fault targets it.
func (e *Engine) injectorFor(round int, phase Phase, task, attempt int) *injector {
	f := e.Cfg.Faults.find(round, phase, task, attempt)
	if f == nil {
		return nil
	}
	return &injector{fault: f, phase: phase, task: task, attempt: attempt}
}

// start fires start-of-attempt faults: crash kinds abort the attempt
// immediately, slow-task sleeps and lets the attempt proceed.
func (in *injector) start() {
	if in == nil {
		return
	}
	switch in.fault.Kind {
	case FaultCrashBeforeEmit, FaultTransientOOM:
		panic(faultSignal{in.fault})
	case FaultSlowTask:
		time.Sleep(in.fault.delay())
	}
}

// onEmit fires mid-emit crashes once the armed emit index is reached. The
// record being emitted counts as emitted (its bytes are charged to the
// attempt's wasted work) before the attempt dies, mimicking a task that
// crashed after handing a record to the collector.
func (in *injector) onEmit() {
	if in == nil || in.fault.Kind != FaultCrashMidEmit {
		return
	}
	in.emits++
	if in.emits >= in.fault.afterEmits() {
		panic(faultSignal{in.fault})
	}
}

// err converts the armed fault into the attempt's failure value.
func (in *injector) err(f *Fault) error {
	return &FaultError{Kind: f.Kind, Phase: in.phase, Task: in.task, Attempt: in.attempt}
}

// simDelay is the attempt's simulated straggler stall in seconds: the slow
// fault's injected delay (zero for other kinds and unfaulted attempts). It
// is the quantity Config.SpeculativeSlack and Config.TaskTimeout compare
// against — the deterministic analog of a Hadoop task reporting no progress —
// and is deliberately not charged to CPUSeconds, so a stalled run's
// simulated-time accounting stays identical to a fault-free run's.
func (in *injector) simDelay() float64 {
	if in == nil || in.fault.Kind != FaultSlowTask {
		return 0
	}
	return in.fault.delay().Seconds()
}

// killError is an engine-initiated attempt kill: the attempt's node crashed
// under it, no live node was left to place it on, or it exceeded
// Config.TaskTimeout. Kills are retried up to Config.MaxAttempts like
// injected faults, but a killError is deliberately not a *FaultError: a
// round that fails by exhausting its attempts on kills (e.g. every node
// dead) surfaces a plain, non-injected error.
type killError struct {
	reason  string
	phase   Phase
	task    int
	attempt int
}

// Error describes the kill.
func (e *killError) Error() string {
	return fmt.Sprintf("%s: %s task %d (attempt %d) killed", e.reason, e.phase, e.task, e.attempt)
}
