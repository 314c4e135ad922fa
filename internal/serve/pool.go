package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is returned by Pool.Acquire when the pool's workers are all
// busy and its wait queue is full — the signal to shed the request (HTTP
// 429) instead of queueing it unboundedly.
var ErrOverloaded = errors.New("serve: pool overloaded")

// Pool is the admission controller: at most `workers` requests execute
// concurrently and at most `queue` more wait for a worker. Everything past
// workers+queue is rejected immediately with ErrOverloaded. Bounding the
// queue is the point — an unbounded queue converts overload into unbounded
// latency and memory, while a bounded one converts it into fast, explicit
// 429s the client can back off from.
type Pool struct {
	slots    chan struct{} // worker semaphore, capacity = workers
	admitted atomic.Int64  // holding or waiting for a slot
	capacity int64         // workers + queue

	// Monotonic counters, exported on /metrics and /debug/vars.
	shed     atomic.Int64 // rejected with ErrOverloaded
	acquired atomic.Int64 // successfully admitted and run
}

// NewPool builds a pool of `workers` concurrent slots with a wait queue of
// depth `queue`. workers < 1 and queue < 0 are clamped.
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Pool{
		slots:    make(chan struct{}, workers),
		capacity: int64(workers + queue),
	}
}

// Acquire admits the caller or rejects it. It returns nil when a worker
// slot is held (pair with Release), ErrOverloaded when the queue is full,
// or ctx.Err() when the caller's context ends while waiting in the queue.
func (p *Pool) Acquire(ctx context.Context) error {
	if p.admitted.Add(1) > p.capacity {
		p.admitted.Add(-1)
		p.shed.Add(1)
		return ErrOverloaded
	}
	select {
	case p.slots <- struct{}{}:
		p.acquired.Add(1)
		return nil
	case <-ctx.Done():
		p.admitted.Add(-1)
		return ctx.Err()
	}
}

// Release returns the caller's worker slot.
func (p *Pool) Release() {
	<-p.slots
	p.admitted.Add(-1)
}

// InFlight reports the number of requests currently holding a worker slot.
func (p *Pool) InFlight() int { return len(p.slots) }

// Waiting reports the number of admitted requests not yet holding a slot.
func (p *Pool) Waiting() int {
	w := int(p.admitted.Load()) - len(p.slots)
	if w < 0 {
		w = 0
	}
	return w
}

// Shed reports the number of requests rejected with ErrOverloaded.
func (p *Pool) Shed() int64 { return p.shed.Load() }

// Acquired reports the number of requests admitted so far.
func (p *Pool) Acquired() int64 { return p.acquired.Load() }
