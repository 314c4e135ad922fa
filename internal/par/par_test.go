package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices runs ForEachWorkerCtx: every index once, on a
// worker id below Workers(n, workers), and never two invocations of one
// worker id at a time.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 1000
		hits := make([]int32, n)
		busy := make([]int32, Workers(n, workers))
		if err := ForEachWorkerCtx(context.Background(), n, workers, func(w, i int) {
			if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
				t.Errorf("workers=%d: worker %d ran two invocations at once", workers, w)
			}
			atomic.AddInt32(&hits[i], 1)
			atomic.StoreInt32(&busy[w], 0)
		}); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	for _, n := range []int{0, -3} {
		if err := ForEachWorkerCtx(context.Background(), n, 4, func(int, int) { called = true }); err != nil {
			t.Fatal(err)
		}
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestForEachDeterministicResults: per-worker state folded after the batch
// gives the same total whatever the worker count.
func TestForEachDeterministicResults(t *testing.T) {
	const n = 500
	compute := func(workers int) int {
		sums := make([]int, Workers(n, workers))
		if err := ForEachWorkerCtx(context.Background(), n, workers, func(w, i int) { sums[w] += i * i }); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, v := range sums {
			total += v
		}
		return total
	}
	if seq, parl := compute(1), compute(8); seq != parl {
		t.Fatalf("per-worker totals differ: %d sequential, %d on 8 workers", seq, parl)
	}
}

func TestForEachMoreWorkersThanWork(t *testing.T) {
	count := int32(0)
	if err := ForEachCtx(context.Background(), 3, 64, func(int) { atomic.AddInt32(&count, 1) }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestForEachCtxCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 1000
		hits := make([]int32, n)
		if err := ForEachCtx(context.Background(), n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		called := int32(0)
		err := ForEachCtx(ctx, 100, workers, func(int) { atomic.AddInt32(&called, 1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if called != 0 {
			t.Fatalf("workers=%d: fn called %d times on a dead context", workers, called)
		}
	}
}

func TestForEachCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 100000
		called := int32(0)
		err := ForEachCtx(ctx, n, workers, func(int) {
			if atomic.AddInt32(&called, 1) == 50 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Workers stop claiming chunks after cancellation: far fewer than n
		// invocations (each worker may at most finish its current chunk).
		if c := atomic.LoadInt32(&called); int(c) >= n {
			t.Fatalf("workers=%d: all %d indices ran despite cancellation", workers, c)
		}
	}
}

func TestForEachCtxEmpty(t *testing.T) {
	called := false
	if err := ForEachCtx(context.Background(), 0, 4, func(int) { called = true }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachCtx(context.Background(), -3, 4, func(int) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachCtxPanicContained(t *testing.T) {
	// A panicking fn must not take down the process: the panic surfaces as a
	// *PanicError naming the index, and the remaining workers drain cleanly
	// (every invocation either completes or is skipped — none is left
	// running after ForEachCtx returns).
	for _, workers := range []int{1, 4} {
		const n = 10000
		var running, completed int32
		err := ForEachCtx(context.Background(), n, workers, func(i int) {
			atomic.AddInt32(&running, 1)
			defer atomic.AddInt32(&running, -1)
			if i == 137 {
				panic("episode 137 is bad")
			}
			atomic.AddInt32(&completed, 1)
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 137 {
			t.Fatalf("workers=%d: panic index %d, want 137", workers, pe.Index)
		}
		if !strings.Contains(pe.Error(), "137") || !strings.Contains(pe.Error(), "episode 137 is bad") {
			t.Fatalf("workers=%d: error %q does not name index and value", workers, pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if got := atomic.LoadInt32(&running); got != 0 {
			t.Fatalf("workers=%d: %d invocations still running after return", workers, got)
		}
		if got := atomic.LoadInt32(&completed); int(got) >= n {
			t.Fatalf("workers=%d: all %d indices completed despite panic", workers, got)
		}
	}
}

func TestForEachCtxPanicReportsLowestIndex(t *testing.T) {
	// With several panicking indices the reported one must be deterministic
	// regardless of worker scheduling: the lowest.
	for run := 0; run < 10; run++ {
		err := ForEachCtx(context.Background(), 64, 8, func(i int) {
			panic(i)
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		// Workers claim chunks in order, so index 0's chunk always runs; the
		// lowest recorded panic is therefore always 0.
		if pe.Index != 0 {
			t.Fatalf("run %d: reported index %d, want 0", run, pe.Index)
		}
	}
}

func TestForEachCtxDeterministicResults(t *testing.T) {
	// fn(i) writing to out[i] gives identical results regardless of worker
	// count when the context never fires.
	const n = 500
	compute := func(workers int) []int {
		out := make([]int, n)
		if err := ForEachCtx(context.Background(), n, workers, func(i int) { out[i] = i * i }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := compute(1)
	parl := compute(8)
	for i := range seq {
		if seq[i] != parl[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
}
