package serve

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/route"
)

// TestTransientClassification pins down which failure classes are worth a
// retry: deadline cuts yes, a crashed target only under a plan whose crash
// set the per-attempt seed salt re-draws, definitive protocol outcomes and
// drain-time cancellation no.
func TestTransientClassification(t *testing.T) {
	plan := func(model string) *faults.Plan {
		p, err := faults.NewPlan(1, faults.Spec{Model: "edge-drop", Rate: 0.1}, faults.Spec{Model: model, Rate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	uniform, core, drop := plan("crash-uniform"), plan("crash-core"), plan("msg-loss")
	cases := []struct {
		f    route.Failure
		plan *faults.Plan
		want bool
	}{
		{route.FailNone, nil, false},
		{route.FailDeadEnd, nil, false},
		{route.FailTruncated, nil, false},
		{route.FailDeadline, nil, true},
		{route.FailDeadline, core, true},
		{route.FailCrashedTarget, nil, false},
		{route.FailCrashedTarget, drop, false},
		{route.FailCrashedTarget, core, false},
		{route.FailCrashedTarget, uniform, true},
		{route.FailCancelled, nil, false},
	}
	for _, c := range cases {
		if got := Transient(c.f, c.plan); got != c.want {
			t.Errorf("Transient(%q, %v) = %v, want %v", c.f, c.plan, got, c.want)
		}
	}
}

// TestFailureClassesDeclared pins that every routing outcome has its row in
// failureClasses, and nothing else does: a class added to route.Failures()
// without a status, an exit code and a retry rule fails here, not as a 500
// on the wire or exit 1 from cmd/route.
func TestFailureClassesDeclared(t *testing.T) {
	classes := append([]route.Failure{route.FailNone}, route.Failures()...)
	for _, f := range classes {
		if _, ok := failureClasses[f]; !ok {
			t.Errorf("failure class %q has no row in failureClasses", f)
		}
	}
	if len(failureClasses) != len(classes) {
		t.Errorf("failureClasses has %d rows for %d classes", len(failureClasses), len(classes))
	}
}

// TestBackoffGrowthAndCap verifies the exponential envelope: attempt k's
// delay lies in [cap_k/2, cap_k) where cap_k = min(Base*2^(k-1), MaxDelay),
// so delays grow and then saturate at MaxDelay.
func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}
	for attempt := 1; attempt <= 10; attempt++ {
		env := p.BaseDelay << (attempt - 1)
		if env > p.MaxDelay || env <= 0 { // <= 0 guards shift overflow
			env = p.MaxDelay
		}
		d := p.Backoff(7, attempt)
		if d < env/2 || d >= env {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, env/2, env)
		}
	}
	// Far past the cap the delay must still be bounded by MaxDelay.
	if d := p.Backoff(7, 60); d >= p.MaxDelay || d < p.MaxDelay/2 {
		t.Errorf("attempt 60: backoff %v outside [%v, %v)", d, p.MaxDelay/2, p.MaxDelay)
	}
}

// TestBackoffJitterDeterministic verifies the jitter is a pure function of
// (seed, request, attempt): identical inputs reproduce the schedule,
// different requests decorrelate.
func TestBackoffJitterDeterministic(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 99}
	for attempt := 1; attempt <= 6; attempt++ {
		if a, b := p.Backoff(1, attempt), p.Backoff(1, attempt); a != b {
			t.Fatalf("attempt %d: same inputs gave %v and %v", attempt, a, b)
		}
	}
	// Across 64 request ids at a fixed attempt, jitter must actually vary
	// (a constant would mean synchronized retry storms).
	seen := map[time.Duration]bool{}
	for id := uint64(0); id < 64; id++ {
		seen[p.Backoff(id, 3)] = true
	}
	if len(seen) < 32 {
		t.Fatalf("only %d distinct delays across 64 requests; jitter too weak", len(seen))
	}
	// A different seed shifts the whole schedule.
	q := p
	q.Seed = 100
	same := 0
	for id := uint64(0); id < 64; id++ {
		if p.Backoff(id, 3) == q.Backoff(id, 3) {
			same++
		}
	}
	if same > 4 {
		t.Fatalf("seeds 99 and 100 agree on %d/64 delays; jitter not seed-driven", same)
	}
}

// TestBackoffDefaults verifies the zero policy is serviceable: positive,
// capped delays.
func TestBackoffDefaults(t *testing.T) {
	var p RetryPolicy
	for attempt := 1; attempt <= 20; attempt++ {
		d := p.Backoff(0, attempt)
		if d <= 0 || d > 500*time.Millisecond {
			t.Fatalf("attempt %d: default backoff %v outside (0, 500ms]", attempt, d)
		}
	}
}

// TestHedgeDelayDeterministic pins the hedge delay: a pure function of
// (seed, key) in [after, 1.5*after), varied across keys.
func TestHedgeDelayDeterministic(t *testing.T) {
	const after, seed = 20 * time.Millisecond, 7
	lo, hi := after, after+after/2
	distinct := map[time.Duration]bool{}
	for key := uint64(0); key < 64; key++ {
		d := hedgeDelay(after, seed, key)
		if d < lo || d >= hi {
			t.Fatalf("hedgeDelay(%d) = %v, outside [%v, %v)", key, d, lo, hi)
		}
		if d != hedgeDelay(after, seed, key) {
			t.Fatalf("hedgeDelay(%d) not deterministic", key)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatal("every key hedges at the same instant — synchronized waves")
	}
	if d := hedgeDelay(1, seed, 3); d != 1 {
		t.Fatalf("sub-resolvable after must fall back to the base delay, got %v", d)
	}
}
