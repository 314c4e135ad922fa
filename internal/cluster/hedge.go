package cluster

import (
	"time"

	"repro/internal/xrand"
)

// HedgePolicy decides when a cross-shard hop fires a second, concurrent
// attempt at the next surviving replica: after a deterministic delay the
// first request has not answered within, the hedge launches and the first
// response — from either attempt — wins, the loser cancelled via context.
// A slow-or-dying replica then costs one hedge delay of latency instead of
// a full request timeout or a classified failure.
//
// The delay is a pure hash of (Seed, key) spread over [After, 1.5*After):
// deterministic for a given request (tests can predict it exactly, like the
// retry backoff's jitter), varied across requests so hedges don't fire in
// synchronized waves when a replica slows down under load.
type HedgePolicy struct {
	// After is the base delay before the hedge fires; 0 disables hedging.
	After time.Duration
	// Seed salts the per-request jitter.
	Seed uint64
}

// Enabled reports whether the policy ever hedges.
func (h HedgePolicy) Enabled() bool { return h.After > 0 }

// Delay returns the deterministic hedge delay for one request key, in
// [After, 1.5*After).
func (h HedgePolicy) Delay(key uint64) time.Duration {
	if h.After <= 0 {
		return 0
	}
	span := uint64(h.After) / 2
	if span == 0 {
		return h.After
	}
	return h.After + time.Duration(xrand.Hash64(h.Seed, key)%span)
}
