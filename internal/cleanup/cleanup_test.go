package cleanup

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestNotifyContextTwoStage delivers two SIGINTs: the first must cancel
// the context without running the teardown (the graceful path), the second
// must run the teardown and exit 130.
func TestNotifyContextTwoStage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	exited := make(chan int, 1)
	ctx, stop := NotifyContext(context.Background(),
		func() { os.RemoveAll(dir) },
		func(code int) { exited <- code },
		os.Interrupt,
	)
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first signal did not cancel the context")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("teardown ran on the first (graceful) signal: stat err = %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 130 {
			t.Errorf("exit code %d, want 130", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not force the exit path")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("spill dir survived the forced exit: stat err = %v", err)
	}
}

// TestNotifyContextStopUninstalls verifies stop releases the handler
// goroutine and cancels the context on the normal return path.
func TestNotifyContextStopUninstalls(t *testing.T) {
	ran := false
	ctx, stop := NotifyContext(context.Background(), func() { ran = true }, func(int) {}, os.Interrupt)
	stop() // must not hang
	if ran {
		t.Error("teardown ran without a signal")
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("stop did not cancel the context")
	}
}
