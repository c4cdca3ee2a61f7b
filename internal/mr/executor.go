package mr

// Executor is the execution backend task attempts are dispatched through.
// The engine owns every scheduling decision — placement, retries, and
// which attempt's output wins — because those
// decisions must be deterministic for the byte-identity contract to hold.
// The executor's job is the opposite half: realize (and verify) each
// decision against real execution resources. The default localExecutor has
// no resources beyond the engine's own goroutine pool, so every hook is a
// no-op that reproduces the simulated semantics exactly; the proc backend
// (internal/mr/exec) backs each failure domain with a real worker process
// that acknowledges attempts, is SIGKILLed when its node crashes and is
// respawned at the next round start, so an attempt opened on a crashed node
// genuinely fails.
//
// Determinism argument: an executor can refuse work (BeginAttempt /
// EndAttempt / StoreMapOutput / FetchMapOutput errors) but never produce
// it — map and reduce functions always run in-process. A refusal is
// converted by the engine into the same killError a simulated node crash
// raises, feeding the existing retry/re-placement machinery, and the
// re-entrancy contract makes retried attempts byte-identical. Scheduling
// therefore stays isolated from results: any mix of real crashes changes
// only recovery accounting, never an output byte.
type Executor interface {
	// RoundStart prepares the backend for one engine round over `nodes`
	// failure domains. planDead is the round's simulated node-crash plan
	// (nil when no node-crash fault targets the round): the backend must
	// realize those deaths when CrashNodes is called at the shuffle
	// barrier. An error fails the round plainly.
	RoundStart(round, nodes int, planDead []bool) (RoundExecutor, error)
	// Close releases the backend (terminates worker processes). Idempotent.
	Close() error
}

// RoundExecutor is one round's view of an Executor. The engine calls
// BeginAttempt/EndAttempt/StoreMapOutput from concurrent task goroutines
// (implementations must be safe for that), and CrashNodes/FetchMapOutput
// from the run goroutine at the shuffle barrier.
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
	// on its node. An error is treated like an EndAttempt failure.
	StoreMapOutput(task, attempt, node int) error
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
}

// localExecutor is the default in-process backend: the engine's goroutine
// pool is the only execution resource, so attempts are never refused and
// the only "crashes" are the simulated ones already encoded in planDead —
// FetchMapOutput checks the stored-output-on-a-dead-node condition directly.
type localExecutor struct{}

func (localExecutor) RoundStart(round, nodes int, planDead []bool) (RoundExecutor, error) {
	return localRound{dead: planDead}, nil
}

func (localExecutor) Close() error { return nil }

// localRound implements RoundExecutor over the simulated node state.
type localRound struct {
	dead []bool // the round's planDead set
}

func (localRound) BeginAttempt(phase Phase, task, attempt, node int) error { return nil }
func (localRound) EndAttempt(phase Phase, task, attempt, node int) error   { return nil }
func (localRound) StoreMapOutput(task, attempt, node int) error            { return nil }
func (localRound) CrashNodes()                                             {}

func (r localRound) FetchMapOutput(task, attempt, node int) error {
	if r.dead != nil && r.dead[node] {
		return &killError{reason: "stored map output lost with its node", phase: PhaseMap, task: task, attempt: attempt}
	}
	return nil
}
