package mr

import (
	"sync"
	"time"
)

// spillBuf is one side of a spill writer's double buffer: a fully encoded
// flush image plus its segment metadata, handed from the encoding
// foreground to the writing background and recycled back.
type spillBuf struct {
	framed []byte
	segs   []spillSeg
}

// spillWriter overlaps spill encoding with spill I/O. The map attempt's
// foreground encodes each flush into one of two rotating buffers and hands
// it off; a single background goroutine drains the hand-off channel and
// appends to the attempt's run file in submission order. With two buffers
// the foreground only stalls when it produces flushes faster than the disk
// absorbs them — and that stall is measured (acquire returns it) and
// surfaced as the spillWriteStallNs metric.
//
// Lifecycle contract: the attempt that created the writer must call join
// exactly once before its spill file is read, discarded, or its attempt
// reported done — success, failure, kill, or lost speculation alike. join
// closes the hand-off channel, waits for the goroutine to drain, and
// returns the first write error. No other goroutine may touch the writer.
type spillWriter struct {
	sf *spillFile

	free chan *spillBuf // recycled buffers, cap 2
	work chan *spillBuf // encoded flushes awaiting write, cap 2
	done chan struct{}  // closed when the background goroutine exits

	mu     sync.Mutex
	err    error
	joined bool
}

func newSpillWriter(sf *spillFile) *spillWriter {
	w := &spillWriter{
		sf:   sf,
		free: make(chan *spillBuf, 2),
		work: make(chan *spillBuf, 2),
		done: make(chan struct{}),
	}
	w.free <- &spillBuf{}
	w.free <- &spillBuf{}
	go w.loop()
	return w
}

// acquire returns a buffer to encode the next flush into, and how long the
// foreground blocked waiting for the background writer to free one.
func (w *spillWriter) acquire() (*spillBuf, time.Duration) {
	select {
	case b := <-w.free:
		return b, 0
	default:
	}
	start := time.Now()
	b := <-w.free
	return b, time.Since(start)
}

// submit hands an encoded flush to the writer. Never blocks: work's
// capacity matches the buffer count, so a slot is always available for a
// buffer obtained from acquire.
func (w *spillWriter) submit(b *spillBuf) {
	w.work <- b
}

// loop is the background writer: drain flushes in order, append each,
// recycle the buffer. After the first error it keeps draining (so acquire
// never deadlocks) but stops writing.
func (w *spillWriter) loop() {
	defer close(w.done)
	for b := range w.work {
		if w.getErr() == nil {
			if err := w.sf.append(b.framed, b.segs); err != nil {
				w.setErr(err)
			}
		}
		b.segs = nil
		w.free <- b
	}
}

// join flushes and stops the writer, returning its first error and how
// long the join itself blocked (pending flushes still being written).
// Idempotent; must be called before the run file is read or discarded.
func (w *spillWriter) join() (error, time.Duration) {
	w.mu.Lock()
	if w.joined {
		err := w.err
		w.mu.Unlock()
		return err, 0
	}
	w.joined = true
	w.mu.Unlock()
	start := time.Now()
	close(w.work)
	<-w.done
	return w.getErr(), time.Since(start)
}

func (w *spillWriter) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *spillWriter) getErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
