package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestPoolAdmissionBounds verifies the two bounds independently: workers
// bound concurrency, queue bounds waiters, and everything past
// workers+queue is shed immediately.
func TestPoolAdmissionBounds(t *testing.T) {
	p := NewPool(2, 1)
	ctx := context.Background()

	// Fill both worker slots.
	first, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Third request queues (does not error, does not hold a slot yet).
	queued := make(chan error, 1)
	go func() {
		es, err := p.Acquire(ctx)
		if err == nil {
			defer p.Release(es)
		}
		queued <- err
	}()
	waitFor(t, func() bool { return p.Waiting() == 1 })

	// Fourth request exceeds workers+queue: shed, not queued.
	if _, err := p.Acquire(ctx); err != ErrOverloaded {
		t.Fatalf("Acquire #4 = %v, want ErrOverloaded", err)
	}
	if got := p.Shed(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	// Releasing a worker admits the queued request.
	p.Release(first)
	if err := <-queued; err != nil {
		t.Fatalf("queued Acquire = %v", err)
	}
	p.Release(second)
}

// TestPoolAcquireCancelled verifies a queued waiter honours its context.
func TestPoolAcquireCancelled(t *testing.T) {
	p := NewPool(1, 4)
	held, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx)
		done <- err
	}()
	waitFor(t, func() bool { return p.Waiting() == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
	// The cancelled waiter must have released its admission ticket.
	p.Release(held)
	again, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after cancel = %v", err)
	}
	if again != held {
		t.Fatal("the one worker slot came back with another state")
	}
	p.Release(again)
}

// TestPoolConcurrentHammer floods the pool from many goroutines and checks
// the books balance: every admit is released, nothing hangs, no two
// concurrent holders share a worker's state, and every state comes back.
func TestPoolConcurrentHammer(t *testing.T) {
	const workers = 4
	p := NewPool(workers, 8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, shed := 0, 0
	held := map[*episodeState]bool{}
	seen := map[*episodeState]bool{}
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			es, err := p.Acquire(context.Background())
			mu.Lock()
			if err != nil {
				shed++
				mu.Unlock()
				return
			}
			admitted++
			if held[es] {
				t.Errorf("state %p handed to two holders at once", es)
			}
			held[es], seen[es] = true, true
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			delete(held, es)
			mu.Unlock()
			p.Release(es)
		}()
	}
	wg.Wait()
	if admitted+shed != 200 {
		t.Fatalf("admitted %d + shed %d != 200", admitted, shed)
	}
	if p.InFlight() != 0 || p.Waiting() != 0 {
		t.Fatalf("pool not drained: inflight=%d waiting=%d", p.InFlight(), p.Waiting())
	}
	if int(p.Shed()) != shed {
		t.Fatalf("Shed counter %d != observed %d", p.Shed(), shed)
	}
	if len(seen) != workers {
		t.Fatalf("%d distinct states handed out by %d workers", len(seen), workers)
	}
	back := map[*episodeState]bool{}
	for range workers {
		es, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		back[es] = true
	}
	for es := range seen {
		if !back[es] {
			t.Fatalf("state %p did not come back after Release", es)
		}
	}
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
