package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// hostRef is a fixed pure-Go reference kernel — dependent random reads over
// 2 MB and a float divide per step — run for about 100 ms every 4 s of a
// traced run. A slow or contended host shows as a larger bench.host_ref_ms
// next to the per-layer numbers it explains; it is never used to normalise
// them.
type hostRef struct {
	buf  []uint32
	last time.Time
	ms   []float64
}

const hostRefSteps = 4 << 20

func newHostRef() *hostRef {
	h := &hostRef{buf: make([]uint32, 2<<20/4), last: time.Now()}
	x := uint32(1)
	for i := range h.buf {
		x = x*1664525 + 1013904223
		h.buf[i] = x
	}
	return h
}

func (h *hostRef) run() time.Duration {
	t0 := time.Now()
	mask := uint32(len(h.buf) - 1)
	at, acc := uint32(0), 1.0
	for i := 0; i < hostRefSteps; i++ {
		at = h.buf[at&mask] + uint32(i)
		acc = acc/float64(at|1) + 1
	}
	sink += acc
	d := time.Since(t0)
	h.ms = append(h.ms, float64(d)/1e6)
	h.last = time.Now()
	return d
}

// maybe runs the kernel if 4 s have passed since it last ran and returns the
// time it took.
func (h *hostRef) maybe() time.Duration {
	if time.Since(h.last) < 4*time.Second {
		return 0
	}
	return h.run()
}

// runTraced measures the per-layer metrics: the workload's own loop with
// bench-side spans around every call, then the ladder.
func runTraced(ctx context.Context, o options, fails *failLog) (result, error) {
	w, _, err := setupWorkload(ctx, o, 1, 0, fails)
	if err != nil {
		return result{}, err
	}
	defer w.teardown()
	phase := time.Duration(o.seconds * float64(time.Second))
	host := newHostRef()
	host.run()

	// Tracing overhead is the loop's rate with spans over its rate without,
	// both measured here so they share the run's conditions.
	plain, err := loop(ctx, w, phase*3/20, nil, fails, host.maybe)
	if err != nil {
		return result{}, err
	}
	tr := newSpanRec(1 << 20)
	w.names(tr)
	traced, err := loop(ctx, w, phase*3/20, tr, fails, host.maybe)
	if err != nil {
		return result{}, err
	}
	bad, err := w.verify()
	if err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	w.teardown()

	l, err := runLadder(ctx, o, phase*7/10, host, fails)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(outDir(o.dir), "trace-"+o.workload+".jsonl")); err != nil {
		return result{}, err
	}

	pw := windowStats(plain.log, plain.phase, w.window(), 0.99)
	tw := windowStats(traced.log, traced.phase, w.window(), 0.99)
	// Too host-sensitive to gate (README, "Why p90_ms"): it explains the tail.
	l.vals["load.p99_ms"] = pw.tailNs / 1e6
	l.vals["bench.trace_overhead_ratio"] = tw.qps / pw.qps
	l.vals["bench.reconcile_route_ratio"] = l.vals["serve.route_us_mean"] / l.vals["core.episode_us"]
	l.vals["bench.host_ref_ms"] = median(host.ms)
	l.vals["bench.windows"] = float64(pw.windows + tw.windows)
	ops := len(plain.log.lat) + len(traced.log.lat)
	l.vals["bench.samples"] = float64(ops)
	failed := plain.failed + traced.failed + bad + l.failed
	return result{
		correct:   failed == 0,
		attempted: ops + l.attempted,
		failed:    failed,
		values:    l.vals,
	}, nil
}
