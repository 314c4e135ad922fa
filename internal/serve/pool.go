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
// 429s the client can back off from. A worker slot is its worker's
// episodeState, so routing memory is bounded by workers, as in core's batches.
type Pool struct {
	slots    chan *episodeState // the free workers' states, capacity = workers
	admitted atomic.Int64       // holding or waiting for a slot
	capacity int64              // workers + queue

	// Monotonic counters, exported on /metrics and /debug/vars.
	shed     atomic.Int64 // rejected with ErrOverloaded
	acquired atomic.Int64 // successfully admitted and run
}

// NewPool builds a pool of `workers` concurrent slots with a wait queue of
// depth `queue`. workers < 1 and queue < 0 are clamped.
func NewPool(workers, queue int) *Pool {
	workers, queue = max(workers, 1), max(queue, 0)
	p := &Pool{
		slots:    make(chan *episodeState, workers),
		capacity: int64(workers + queue),
	}
	for range workers {
		p.slots <- new(episodeState)
	}
	return p
}

// Acquire admits the caller or rejects it. It returns the worker slot's
// state when a slot is held (pair with Release), ErrOverloaded when the
// queue is full, or ctx.Err() when the caller's context ends while waiting
// in the queue.
func (p *Pool) Acquire(ctx context.Context) (*episodeState, error) {
	if p.admitted.Add(1) > p.capacity {
		p.admitted.Add(-1)
		p.shed.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case es := <-p.slots:
		p.acquired.Add(1)
		return es, nil
	case <-ctx.Done():
		p.admitted.Add(-1)
		return nil, ctx.Err()
	}
}

// Release returns the worker slot es that Acquire handed out.
func (p *Pool) Release(es *episodeState) {
	p.slots <- es
	p.admitted.Add(-1)
}

// InFlight reports the number of requests currently holding a worker slot.
func (p *Pool) InFlight() int { return cap(p.slots) - len(p.slots) }

// Waiting reports the number of admitted requests not yet holding a slot.
func (p *Pool) Waiting() int { return max(int(p.admitted.Load())-p.InFlight(), 0) }

// Shed reports the number of requests rejected with ErrOverloaded.
func (p *Pool) Shed() int64 { return p.shed.Load() }

// Acquired reports the number of requests admitted so far.
func (p *Pool) Acquired() int64 { return p.acquired.Load() }
