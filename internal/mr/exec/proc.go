// Package exec provides the multi-process execution backend for the MR
// engine: one real worker process per simulated failure domain, attempts
// acknowledged over gob-encoded RPCs on a pipe pair, and node-crash faults
// realized by SIGKILLing the actual worker process.
//
// The division of labor mirrors a task-tracker architecture under the
// engine's determinism contract (see mr.Executor): the engine decides,
// workers attest. Map and reduce functions run in the parent — moving the
// computation out of process would force output bytes through a codec and
// make results depend on which process survived — while each worker is its
// node's liveness and storage agent: an attempt only counts if its worker
// acknowledged it at open and close, and a map output is only fetchable if
// the worker that recorded it is still alive to say so. SIGKILL therefore
// makes exactly the RPCs fail that the simulated plan says must fail, and
// recovery exercises genuine crash paths end to end.
package exec

import (
	"encoding/gob"
	"fmt"
	"os"
	osexec "os/exec"
	"sync"
	"time"

	"github.com/spcube/spcube/internal/mr"
)

// rpcTimeout bounds every worker RPC. A dead worker fails its next RPC at
// once (a closed pipe); a hung one fails it here.
const rpcTimeout = 2 * time.Second

// Proc is the multi-process execution backend: one worker process per
// failure domain, node-crash faults by SIGKILL, and every dead worker
// respawned at the next round start. Create with NewProc, hand to
// mr.Config.Executor, and Close when the computation is done (Close reaps
// every worker process). Safe for the engine's concurrency contract; a
// Proc serves one engine at a time.
type Proc struct {
	mu      sync.Mutex
	workers []*worker
	closed  bool
}

// NewProc builds a proc backend. Its workers re-execute the current binary,
// which MaybeWorkerMain at the top of main routes into the worker loop.
func NewProc() *Proc {
	return &Proc{}
}

// worker is the parent's handle on one worker process.
type worker struct {
	node   int
	cmd    *osexec.Cmd
	waitCh chan struct{} // closed when the process has been reaped

	mu   sync.Mutex // serializes RPCs on the pipes
	req  *os.File   // write end of the worker's fd 3
	resp *os.File   // read end of the worker's fd 4
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// RoundStart implements mr.Executor: spawn a worker for every node that has
// none or whose worker died, and hand the round this fleet. A failed spawn
// fails the round.
func (p *Proc) RoundStart(round, nodes int, planDead []bool) (mr.RoundExecutor, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("proc backend is closed")
	}
	for len(p.workers) < nodes {
		p.workers = append(p.workers, nil)
	}
	for node, w := range p.workers[:nodes] {
		if w != nil && !w.dead() {
			continue
		}
		if w != nil {
			w.kill()
		}
		nw, err := spawn(node)
		if err != nil {
			return nil, err
		}
		p.workers[node] = nw
	}
	return &procRound{round: round, workers: append([]*worker(nil), p.workers[:nodes]...), planDead: planDead}, nil
}

// spawn starts node's worker process: the current binary, marked as a
// worker by its environment, with a request pipe on fd 3 and a response
// pipe on fd 4.
func spawn(node int) (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("worker binary: %w", err)
	}
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("worker pipe: %w", err)
	}
	respR, respW, err := os.Pipe()
	if err != nil {
		reqR.Close()
		reqW.Close()
		return nil, fmt.Errorf("worker pipe: %w", err)
	}
	cmd := osexec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", envNode, node))
	cmd.ExtraFiles = []*os.File{reqR, respW}
	cmd.Stderr = os.Stderr
	err = cmd.Start()
	reqR.Close() // the worker holds its own copies
	respW.Close()
	if err != nil {
		reqW.Close()
		respR.Close()
		return nil, fmt.Errorf("spawn worker %d: %w", node, err)
	}
	w := &worker{node: node, cmd: cmd, waitCh: make(chan struct{}),
		req: reqW, resp: respR, enc: gob.NewEncoder(reqW), dec: gob.NewDecoder(respR)}
	go func() {
		cmd.Wait()
		close(w.waitCh)
	}()
	return w, nil
}

// call performs one RPC. A refusal from a live worker is returned as it is;
// any other error kills the worker, which stays dead until the next round
// start respawns it.
func (w *worker) call(req request) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	deadline := time.Now().Add(rpcTimeout)
	err := w.req.SetWriteDeadline(deadline)
	if err == nil {
		err = w.resp.SetReadDeadline(deadline)
	}
	if err == nil {
		err = w.enc.Encode(&req)
	}
	var resp response
	if err == nil {
		err = w.dec.Decode(&resp)
	}
	if err != nil {
		w.kill()
		return fmt.Errorf("worker %d %s: %w", w.node, req.Op, err)
	}
	if resp.Err != "" {
		return fmt.Errorf("worker %d %s: %s", w.node, req.Op, resp.Err)
	}
	return nil
}

// dead reports whether the worker process has exited and been reaped.
func (w *worker) dead() bool {
	select {
	case <-w.waitCh:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the worker process, waits for it to be reaped, and closes
// its pipes, so every later RPC against it fails. Idempotent.
func (w *worker) kill() {
	w.cmd.Process.Kill()
	<-w.waitCh
	w.req.Close()
	w.resp.Close()
}

// procRound implements mr.RoundExecutor over the fleet RoundStart handed
// it: a worker killed during the round stays dead until the next one.
type procRound struct {
	round    int
	workers  []*worker
	planDead []bool
}

func (r *procRound) BeginAttempt(phase mr.Phase, task, attempt, node int) error {
	return r.workers[node].call(request{Op: opBegin, Round: r.round, Task: task, Attempt: attempt})
}

func (r *procRound) EndAttempt(phase mr.Phase, task, attempt, node int) error {
	return r.workers[node].call(request{Op: opEnd, Round: r.round, Task: task, Attempt: attempt})
}

func (r *procRound) StoreMapOutput(task, attempt, node int) error {
	return r.workers[node].call(request{Op: opStore, Round: r.round, Task: task, Attempt: attempt})
}

// CrashNodes realizes the round's simulated node-crash plan: SIGKILL every
// doomed node's worker process and wait for each to be reaped before
// returning, so the fetch probes that follow deterministically observe
// dead processes — the real lost set equals the simulated one.
func (r *procRound) CrashNodes() {
	for node, doomed := range r.planDead {
		if doomed {
			r.workers[node].kill()
		}
	}
}

func (r *procRound) FetchMapOutput(task, attempt, node int) error {
	return r.workers[node].call(request{Op: opFetch, Round: r.round, Task: task, Attempt: attempt})
}

// Close implements mr.Executor: SIGKILL and reap every worker. Idempotent.
func (p *Proc) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, w := range p.workers {
		if w != nil {
			w.kill()
		}
	}
	p.workers = nil
	return nil
}
