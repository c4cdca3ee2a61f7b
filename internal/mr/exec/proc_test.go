package exec

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// killWorker SIGKILLs node's worker process and waits for it to die — the
// chaos hook for randomized kill soaks.
func (p *Proc) killWorker(node int) {
	p.mu.Lock()
	var w *worker
	if node < len(p.workers) {
		w = p.workers[node]
	}
	p.mu.Unlock()
	if w != nil {
		w.kill()
	}
}

// workerPIDs returns the process IDs of every live worker.
func (p *Proc) workerPIDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pids []int
	for _, w := range p.workers {
		if w != nil && !w.dead() {
			pids = append(pids, w.cmd.Process.Pid)
		}
	}
	return pids
}

// pidAlive reports whether pid names a process, an unreaped zombie
// included: Close promises to reap every worker it kills.
func pidAlive(pid int) bool {
	return syscall.Kill(pid, 0) == nil
}

// exited reports whether pid's process has exited, reaped or not. An
// orphan's reaper is whatever adopted it, and its wait may never come.
func exited(pid int) bool {
	if !pidAlive(pid) {
		return true
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesized command name.
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
}

// closeAndCheck closes p and fails t for every worker process that
// survives it.
func closeAndCheck(t *testing.T, p *Proc, label string) {
	t.Helper()
	pids := p.workerPIDs()
	p.Close()
	for _, pid := range pids {
		if pidAlive(pid) {
			t.Errorf("%sworker pid %d still alive after Close", label, pid)
		}
	}
}

// envOrphanParent marks the helper process TestWorkersDieWithParent kills.
const envOrphanParent = "SPCUBE_TEST_ORPHAN_PARENT"

// TestWorkersDieWithParent SIGKILLs a process that owns a Proc with live
// workers, so Close never runs. Each worker reads EOF from its request pipe
// once the parent's end is gone, and exits: none may outlive the parent.
func TestWorkersDieWithParent(t *testing.T) {
	if os.Getenv(envOrphanParent) != "" {
		p := NewProc()
		if _, err := p.RoundStart(0, 3, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(strings.Trim(fmt.Sprint(p.workerPIDs()), "[]"))
		time.Sleep(time.Minute) // the test SIGKILLs this process long before
	}
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	// The helper's stderr, which its workers inherit, is a file: a pipe
	// would keep this test's own output open while a leaked worker lives.
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	cmd := osexec.Command(os.Args[0], "-test.run=^TestWorkersDieWithParent$")
	cmd.Env = append(os.Environ(), envOrphanParent+"=1")
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	cmd.Process.Kill()
	cmd.Wait()
	if err != nil {
		msg, _ := os.ReadFile(stderr.Name())
		t.Fatalf("helper reported no worker PIDs: %v\n%s", err, msg)
	}
	var pids []int
	for _, f := range strings.Fields(line) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("helper wrote %q", line)
		}
		pids = append(pids, pid)
	}
	if len(pids) != 3 {
		t.Fatalf("helper reported %d worker PIDs, want 3", len(pids))
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for !exited(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("worker pid %d outlived its parent by 10s", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
