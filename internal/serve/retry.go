package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/xrand"
)

// RetryPolicy is the per-request retry/backoff policy of the daemon.
// Transient failure classes are retried with capped exponential backoff plus
// full jitter; permanent classes fail fast — retrying a proven dead end
// only burns the worker slot the admission controller just granted.
type RetryPolicy struct {
	// MaxAttempts is the total number of routing attempts (1 = no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt k waits up to
	// BaseDelay * 2^(k-1), capped at MaxDelay, jittered uniformly down.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Seed drives the jitter; every delay is a pure function of (Seed, key,
	// attempt), key a hash of the request id (drawKey), so a request's
	// schedule replays under its X-Request-ID on any daemon with this Seed.
	Seed uint64
}

// withDefaults fills unset fields with serviceable defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// Transient reports whether a failure under the request's fault plan (nil
// for none) is worth retrying, by its class's row in failureClasses.
func Transient(f route.Failure, plan *faults.Plan) bool {
	retry := failureClasses[f].retry
	return retry != nil && retry(plan)
}

// Backoff returns the delay before retry attempt `attempt` of what key keys,
// a query or one boundary crossing (drawKey), 1-based: Backoff(key, k) is
// the delay between attempts k and k+1. The exponential base doubles per
// attempt and is capped at MaxDelay; full jitter then draws uniformly from
// [cap/2, cap], so concurrent retriers decorrelate without ever collapsing
// the wait to zero. The draw is a pure hash of (Seed, key, attempt) — no
// shared RNG, no lock, fully deterministic for a pinned seed.
func (p RetryPolicy) Backoff(key uint64, attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Uniform in [d/2, d): half the spread of classic full jitter, keeping a
	// floor so a burst of retriers cannot synchronize at zero delay.
	u := xrand.HashFloat(p.Seed, key, uint64(attempt))
	return d/2 + time.Duration(u*float64(d/2))
}

// backoff is the daemon's one retry wait, between a query's engine attempts
// and a forward's failover passes alike: Retry.Backoff(key, attempt) clamped
// to the deadline, booked once slept on tm, the retry_backoff histogram and a
// span labelled "<label> <attempt>". It returns the planned wait, and false
// when ctx ended it first.
func (s *Server) backoff(ctx context.Context, key uint64, attempt int, deadline time.Time, label string, rt *reqTrace, tm *Timings) (time.Duration, bool) {
	wait := s.cfg.Retry.Backoff(key, attempt)
	if rem := time.Until(deadline); wait > rem {
		wait = rem
	}
	if wait <= 0 {
		return wait, true
	}
	start := time.Now()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return wait, false
	}
	slept := time.Since(start)
	tm.BackoffUs += slept.Microseconds()
	s.phaseLat[phaseBackoff].Record(slept)
	if rt != nil {
		rt.add(obs.SpanRetryBackoff, start, slept, "", fmt.Sprintf("%s %d", label, attempt), "")
	}
	return wait, true
}

// hedgeDelay is how long a cross-shard hop waits on its first replica before
// a hedged second attempt fires at the next one: a pure hash of (seed, the
// crossing's drawKey) spread over [after, 1.5*after), replayed with the
// request and varied across crossings so hedges do not fire in waves.
func hedgeDelay(after time.Duration, seed, key uint64) time.Duration {
	span := uint64(after) / 2
	if span == 0 {
		return after
	}
	return after + time.Duration(xrand.Hash64(seed, key)%span)
}
