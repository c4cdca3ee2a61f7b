package exec

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
)

// envNode carries a spawned worker's node index. Set by the parent; its
// presence turns MaybeWorkerMain into the worker loop.
const envNode = "SPCUBE_WORKER_NODE"

// Op names one worker RPC.
const (
	opBegin = "begin" // open a task attempt on this node
	opEnd   = "end"   // close a completed attempt
	opStore = "store" // record a map attempt's output as stored here
	opFetch = "fetch" // probe a stored map output's fetchability
)

// request is one RPC to a worker.
type request struct {
	Op      string
	Round   int
	Task    int
	Attempt int
}

// response answers one request. A non-empty Err is the worker refusing the
// request (a fetch of an output it does not hold).
type response struct {
	Err string
}

// MaybeWorkerMain turns the current process into an execution-backend
// worker when the parent marked it as one, and returns without effect
// otherwise. Call it first thing in main (and in TestMain for test binaries
// that use the proc backend): the proc backend re-executes the parent
// binary, and this hook routes the child into the worker loop instead of
// the CLI. Does not return when the process is a worker — the loop exits
// the process.
func MaybeWorkerMain() {
	env, ok := os.LookupEnv(envNode)
	if !ok {
		return
	}
	node, _ := strconv.Atoi(env)
	// A ^C at the terminal reaches the whole process group; workers stay up
	// for the parent's cancelled rounds to drain and reap them.
	signal.Ignore(os.Interrupt)
	if err := serveWorker(node, os.NewFile(3, "requests"), os.NewFile(4, "responses")); err != nil {
		fmt.Fprintf(os.Stderr, "worker node %d: %v\n", node, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// outputKey identifies one stored map output: task and attempt index.
type outputKey struct{ task, attempt int }

// serveWorker answers the parent's RPCs until the request pipe reaches EOF:
// the parent closed it, or the parent died. The map-output ledger is the
// node's storage for the current round. It dies with the process — that is
// the point: a SIGKILLed node genuinely cannot attest to its outputs.
func serveWorker(node int, in io.Reader, out io.Writer) error {
	dec := gob.NewDecoder(in)
	enc := gob.NewEncoder(out)
	round := -1
	outputs := map[outputKey]bool{}
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		var resp response
		key := outputKey{req.Task, req.Attempt}
		switch req.Op {
		case opBegin, opEnd:
			// Liveness attestations: answering at all is the point. A dead
			// or unreachable worker cannot, and the engine kills the attempt.
		case opStore:
			if req.Round != round {
				round = req.Round
				clear(outputs)
			}
			outputs[key] = true
		case opFetch:
			if req.Round != round || !outputs[key] {
				resp.Err = fmt.Sprintf("node %d holds no output for map task %d attempt %d", node, req.Task, req.Attempt)
			}
		default:
			resp.Err = "unknown op " + req.Op
		}
		if err := enc.Encode(&resp); err != nil {
			return err
		}
	}
}
