// Package par provides the tiny deterministic parallelism helper the
// experiment harness uses: fan a fixed index range out over a bounded
// worker pool. Callers precompute any random choices sequentially and make
// fn(i) a pure function of i, so parallel runs are bit-identical to
// sequential ones.
//
// Worker panics are contained: a panicking fn(i) does not tear the whole
// process down from an unrecoverable worker goroutine. ForEachCtx surfaces
// the panic as a *PanicError naming the index, and the remaining workers
// stop claiming new work and drain cleanly. If several invocations panic,
// the lowest panicking index is reported: chunks are claimed in index order
// and a claimed chunk runs to its first panic, so the report is
// deterministic regardless of scheduling.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from one fn(i) invocation.
type PanicError struct {
	// Index is the invocation index whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error names the panicking index and value; the captured stack is
// available on the struct for loggers that want it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: fn(%d) panicked: %v", e.Index, e.Value)
}

// panicTracker records the lowest-index panic across workers.
type panicTracker struct {
	mu sync.Mutex
	pe *PanicError
}

// record keeps the panic with the smallest index.
func (t *panicTracker) record(pe *PanicError) {
	t.mu.Lock()
	if t.pe == nil || pe.Index < t.pe.Index {
		t.pe = pe
	}
	t.mu.Unlock()
}

// ctxChunk is how many indices a worker claims per context check in
// ForEachCtx: large enough that the ctx.Err atomic load is amortized away on
// microsecond-scale fn bodies, small enough that cancellation takes effect
// within a few dozen invocations per worker.
const ctxChunk = 16

// ForEachCtx invokes fn(i) for every i in [0, n), using up to workers
// goroutines (0 means GOMAXPROCS); fn must be safe to call concurrently for
// distinct i. Cancellation is cooperative: workers claim indices in chunks of
// ctxChunk and re-check ctx between chunks. If ctx is cancelled
// (or its deadline passes) before all indices are processed, workers stop
// claiming new chunks and ForEachCtx returns ctx.Err(); indices already
// claimed may still run, so on a non-nil return the caller must treat the
// output as partial. A ctx that is already done on entry returns its error
// before any invocation. If any fn(i) panics, the panic is contained: the
// remaining workers drain cleanly and ForEachCtx returns a *PanicError
// naming the lowest panicking index (taking precedence over a concurrent
// cancellation). A nil error means every fn(i) ran exactly once.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) { fn(i) })
}

// Workers resolves the worker count ForEachCtx and ForEachWorkerCtx use for n
// invocations with a requested pool size of workers (0 = GOMAXPROCS): the
// requested size capped at n, at least 1. Callers that keep per-worker state
// size their state slice with it before calling ForEachWorkerCtx with the
// same (n, workers).
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachWorkerCtx is ForEachCtx for callers that thread per-worker state
// through the batch: fn receives (w, i) where w identifies the claiming
// worker, 0 <= w < Workers(n, workers). Distinct invocations with the same w
// never run concurrently, so fn may freely reuse state indexed by w — the
// hook the routing engine uses to run every episode of one worker on the
// same scratch buffers. Chunking, cancellation and panic containment are
// exactly ForEachCtx's.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(w, i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = Workers(n, workers)
	if workers == 1 {
		for base := 0; base < n; base += ctxChunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := base; i < base+ctxChunk && i < n; i++ {
				if pe := invokeW(fn, 0, i); pe != nil {
					return pe
				}
			}
		}
		return ctx.Err()
	}
	var (
		next    int64
		stopped atomic.Bool
		tracker panicTracker
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && !stopped.Load() {
				base := int(atomic.AddInt64(&next, ctxChunk)) - ctxChunk
				if base >= n {
					return
				}
				for i := base; i < base+ctxChunk && i < n; i++ {
					if pe := invokeW(fn, w, i); pe != nil {
						tracker.record(pe)
						stopped.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if tracker.pe != nil {
		return tracker.pe
	}
	return ctx.Err()
}

// invokeW runs fn(w, i), converting a panic into a *PanicError naming i.
func invokeW(fn func(w, i int), w, i int) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(w, i)
	return nil
}
