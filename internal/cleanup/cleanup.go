// Package cleanup runs teardown functions when a process is interrupted.
//
// The CLIs rely on deferred cleanup (spill temp directories, output
// flushes) that a SIGINT or SIGTERM would skip: Go's default handler
// exits the process immediately, leaking whatever the deferred calls
// would have removed. NotifyContext installs a two-stage handler: the
// first signal cancels a context so the engine can unwind cleanly (reaping
// worker processes and running the deferred cleanup on the normal return
// path), and only a second signal runs the given teardown and exits with
// the conventional 128+signum status, so even a forced exit leaves no
// spill directories behind.
package cleanup

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// NotifyContext installs a two-stage interrupt handler: the first SIGINT
// or SIGTERM cancels the returned context — the engine stops in-flight
// rounds at the next attempt boundary, worker processes are reaped, and
// the CLI's deferred cleanup runs on the normal return path — while a
// second signal gives up on graceful shutdown, runs fn (the last-resort
// teardown, e.g. removing the spill root) and exits with 128+signum.
// The returned stop uninstalls the handler and must be called (deferred)
// before the process returns normally.
func NotifyContext(parent context.Context, fn func(), exit func(code int), sigs ...os.Signal) (ctx context.Context, stop func()) {
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt, syscall.SIGTERM}
	}
	cctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := <-ch; !ok {
			return
		}
		cancel()
		sig, ok := <-ch
		if !ok {
			return
		}
		fn()
		exit(128 + signum(sig))
	}()
	return cctx, func() {
		signal.Stop(ch)
		close(ch)
		<-done
		cancel()
	}
}

// signum extracts the numeric signal (2 for SIGINT, 15 for SIGTERM);
// unknown signal types map to 0, i.e. plain exit status 128.
func signum(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return int(s)
	}
	return 0
}
