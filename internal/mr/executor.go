package mr

// Executor is the execution backend task attempts are dispatched through.
// The engine owns every scheduling decision — placement, retries,
// speculation, timeouts, and which attempt's output wins — because those
// decisions must be deterministic for the byte-identity contract to hold.
// The executor's job is the opposite half: realize (and verify) each
// decision against real execution resources. The default localExecutor has
// no resources beyond the engine's own goroutine pool, so every hook is a
// no-op that reproduces the simulated semantics exactly; the proc backend
// (internal/mr/exec) backs each failure domain with a real worker process,
// so an attempt opened on a SIGKILLed node genuinely fails.
//
// Determinism argument: an executor can refuse work (BeginAttempt /
// EndAttempt / StoreMapOutput / FetchMapOutput errors) but never produce
// it — map and reduce functions always run in-process. A refusal is
// converted by the engine into the same killError a simulated node crash
// raises, feeding the existing retry/re-placement machinery, and the
// re-entrancy contract makes retried attempts byte-identical. Scheduling
// therefore stays isolated from results: any mix of real crashes changes
// only recovery accounting and the volatile ExecStats counters, never an
// output byte.
type Executor interface {
	// RoundStart prepares the backend for one engine round over `nodes`
	// failure domains. planDead is the round's simulated node-crash plan
	// (nil when no node-crash fault targets the round): the backend must
	// realize those deaths when CrashNodes is called at the shuffle
	// barrier. It returns the round handle plus the backend's own down
	// set — nodes whose workers could not be (re)started within the
	// restart budget and must be drained onto live nodes (nil when all are
	// usable). An error means no node is usable at all; the engine fails
	// the round plainly rather than hanging.
	RoundStart(round, nodes int, planDead []bool, hooks RoundHooks) (RoundExecutor, []bool, error)
	// Close releases the backend (terminates worker processes, removes
	// sockets). Idempotent.
	Close() error
}

// RoundExecutor is one round's view of an Executor. The engine calls
// BeginAttempt/EndAttempt/StoreMapOutput from concurrent task goroutines
// (implementations must be safe for that), and CrashNodes/FetchMapOutput/
// RoundEnd from the run goroutine at the shuffle barrier and round end.
type RoundExecutor interface {
	// BeginAttempt opens a task attempt on its placed node. An error means
	// the node cannot run work (its worker is dead or unreachable); the
	// engine kills the attempt and re-places the retry, exactly as for a
	// simulated dead node.
	BeginAttempt(phase Phase, task, attempt, node int) error
	// EndAttempt closes a completed attempt on its node. An error (the
	// worker died while the attempt ran) discards the attempt's output and
	// retries, modeling a task tracker lost mid-task.
	EndAttempt(phase Phase, task, attempt, node int) error
	// StoreMapOutput registers a completed map attempt's output as stored
	// on its node, with its shuffle accounting. An error is treated like an
	// EndAttempt failure.
	StoreMapOutput(task, attempt, node int, records, bytes int64) error
	// CrashNodes realizes the round's planDead set at the shuffle barrier.
	// The proc backend SIGKILLs the doomed worker processes and waits for
	// them to die before returning, so the fetch probes that follow fail
	// deterministically; the local backend does nothing (deadness is
	// already encoded in planDead).
	CrashNodes()
	// FetchMapOutput probes whether map task's stored output (attempt, on
	// node) is still fetchable after CrashNodes. An error marks the output
	// lost; the engine re-executes the map task on live nodes.
	FetchMapOutput(task, attempt, node int) error
	// RoundEnd closes the round and returns the backend's health counters.
	// Called exactly once, after the last attempt of the round.
	RoundEnd() ExecStats
}

// ExecStats are one round's execution-backend health counters. All three
// are volatile under the proc backend (real crash recovery does not replay
// identically) and always zero under the local backend; determinism
// comparisons strip them like the wall-clock fields.
type ExecStats struct {
	// HeartbeatMisses counts worker heartbeat probes that timed out or
	// errored during the round.
	HeartbeatMisses int64
	// WorkerRestarts counts worker processes (re)spawned for the round —
	// replacements for crashed or SIGKILLed workers, not the initial fleet.
	WorkerRestarts int64
	// RPCRetries counts worker RPCs that were retried after a timeout or a
	// transport error (with reconnect).
	RPCRetries int64
}

// RoundHooks carries the engine facilities a backend may call back into
// during a round.
type RoundHooks struct {
	// Trace delivers a round-level backend trace event (EvWorkerSpawn,
	// EvWorkerDead). It must only be called from RoundStart or CrashNodes —
	// both run on the engine's run goroutine — so event sequence numbers
	// stay deterministic; per-RPC incidents are counted in ExecStats
	// instead. Never nil, but a no-op when tracing is disabled.
	Trace func(ev TraceEvent)
}

// localExecutor is the default in-process backend: the engine's goroutine
// pool is the only execution resource, so attempts are never refused and
// the only "crashes" are the simulated ones already encoded in planDead —
// FetchMapOutput checks the stored-output-on-a-dead-node condition directly.
type localExecutor struct{}

func (localExecutor) RoundStart(round, nodes int, planDead []bool, hooks RoundHooks) (RoundExecutor, []bool, error) {
	return localRound{dead: planDead}, nil, nil
}

func (localExecutor) Close() error { return nil }

// localRound implements RoundExecutor over the simulated node state.
type localRound struct {
	dead []bool // the round's planDead set
}

func (localRound) BeginAttempt(phase Phase, task, attempt, node int) error { return nil }
func (localRound) EndAttempt(phase Phase, task, attempt, node int) error   { return nil }
func (localRound) StoreMapOutput(task, attempt, node int, records, bytes int64) error {
	return nil
}
func (localRound) CrashNodes() {}

func (r localRound) FetchMapOutput(task, attempt, node int) error {
	if r.dead != nil && r.dead[node] {
		return &killError{reason: "stored map output lost with its node", phase: PhaseMap, task: task, attempt: attempt}
	}
	return nil
}

func (localRound) RoundEnd() ExecStats { return ExecStats{} }
