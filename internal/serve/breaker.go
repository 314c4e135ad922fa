package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrBreakerOpen is returned by Breaker.Allow while the breaker is open —
// the signal to fail the request fast (HTTP 503 + Retry-After) instead of
// burning a worker slot on a (graph, protocol) pair that is currently
// failing.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker machine. Its values
// are the /metrics state gauge's: 0 closed, 1 open, 2 half-open.
type BreakerState int

const (
	// BreakerClosed passes requests through and watches the failure rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects everything until the open interval elapses.
	BreakerOpen
	// BreakerHalfOpen lets a bounded number of probes through; their fate
	// decides between reopening and closing.
	BreakerHalfOpen
)

// String names the state for /debug/vars and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// Window is the size of the sliding outcome window (requests).
	Window int
	// FailureThreshold opens the breaker when the window's failure rate
	// reaches it (e.g. 0.5) with at least MinSamples outcomes recorded.
	FailureThreshold float64
	// MinSamples is the minimum window population before the rate is
	// considered meaningful; below it the breaker never opens.
	MinSamples int
	// OpenFor is how long an opened breaker rejects before letting probes
	// through (half-open).
	OpenFor time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker; the first probe failure reopens it.
	HalfOpenProbes int
	// Now overrides the clock for tests; nil means time.Now.
	Now func() time.Time
}

// withDefaults fills unset fields with serviceable defaults.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is one sliding-window circuit breaker, guarding one
// (graph, protocol) pair in the daemon. What counts as a breaker failure is
// the caller's choice — the daemon feeds it engine-inflicted failure
// classes (deadline cuts) and episode errors of fault-free queries, not
// definitive protocol outcomes like dead ends, which are healthy service
// behaviour, nor anything a query's own fault plan inflicted.
// Breaker is safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	ring     []bool // true = failure
	idx      int
	filled   int
	fails    int
	openedAt time.Time
	probes   int // successful probes while half-open
	inflight int // admitted probes awaiting Record while half-open

	opens int64 // cumulative closed/half-open -> open transitions
}

// NewBreaker builds a breaker with cfg (zero fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	c := cfg.withDefaults()
	return &Breaker{cfg: c, ring: make([]bool, c.Window)}
}

// Allow asks the breaker whether a request may proceed. On nil it MUST be
// followed by exactly one Record call with the request's outcome. While
// open it returns ErrBreakerOpen and the remaining time until the next
// half-open probe window.
func (b *Breaker) Allow() (retryIn time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return 0, nil
	case BreakerOpen:
		if wait := b.openedAt.Add(b.cfg.OpenFor).Sub(b.cfg.Now()); wait > 0 {
			return wait, ErrBreakerOpen
		}
		// Open interval elapsed: become half-open and admit this request as
		// the first probe.
		b.state = BreakerHalfOpen
		b.probes, b.inflight = 0, 1
		return 0, nil
	default: // BreakerHalfOpen
		// Probes (recorded successes plus admitted-but-unrecorded ones) are
		// bounded by HalfOpenProbes: admitting more would re-dump full load
		// on a possibly still-failing dependency.
		if b.probes+b.inflight >= b.cfg.HalfOpenProbes {
			return b.cfg.OpenFor, ErrBreakerOpen
		}
		b.inflight++
		return 0, nil
	}
}

// Record feeds one admitted request's outcome back into the state machine.
func (b *Breaker) Record(failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		if failure {
			b.trip()
			return
		}
		b.probes++
		if b.probes >= b.cfg.HalfOpenProbes {
			// Recovery confirmed: close with a clean window so stale
			// pre-open failures can't immediately re-trip.
			b.state = BreakerClosed
			b.resetWindow()
		}
	case BreakerClosed:
		b.push(failure)
		if b.filled >= b.cfg.MinSamples &&
			float64(b.fails)/float64(b.filled) >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerOpen:
		// A straggler admitted before the trip finished after it; its
		// outcome is moot.
	}
}

// trip moves to open and stamps the clock. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.opens++
	b.probes, b.inflight = 0, 0
	b.resetWindow()
}

// push records one outcome in the sliding window. Callers hold b.mu.
func (b *Breaker) push(failure bool) {
	if b.filled == len(b.ring) {
		if b.ring[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.ring[b.idx] = failure
	if failure {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.ring)
}

// resetWindow clears the sliding window. Callers hold b.mu.
func (b *Breaker) resetWindow() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
}

// State reports the current state (advancing open→half-open if the open
// interval has elapsed, so observers see the same state Allow would).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !b.cfg.Now().Before(b.openedAt.Add(b.cfg.OpenFor)) {
		return BreakerHalfOpen
	}
	return b.state
}

// Opens reports the cumulative number of trips to open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// breakers is one family of circuit breakers keyed by a pair of names —
// (graph, protocol) for requests, (peer, graph) for forwards — each created
// on first use with the family's config. The two families are kept apart so
// that a dead peer fails its own forwards fast without poisoning shard-local
// routing on the same graph. Safe for concurrent use.
type breakers struct {
	cfg BreakerConfig
	mu  sync.Mutex
	m   map[[2]string]*Breaker
}

// get returns the breaker of (a, b), creating it on first use.
func (f *breakers) get(a, b string) *Breaker {
	f.mu.Lock()
	defer f.mu.Unlock()
	br, ok := f.m[[2]string{a, b}]
	if !ok {
		if f.m == nil {
			f.m = map[[2]string]*Breaker{}
		}
		br = NewBreaker(f.cfg)
		f.m[[2]string{a, b}] = br
	}
	return br
}

// breakerEntry is one breaker of a family with its key.
type breakerEntry struct {
	key [2]string
	br  *Breaker
}

// sorted lists the family by key, so consecutive scrapes diff cleanly.
func (f *breakers) sorted() []breakerEntry {
	f.mu.Lock()
	out := make([]breakerEntry, 0, len(f.m))
	for k, br := range f.m {
		out = append(out, breakerEntry{k, br})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i].key, out[j].key
		return x[0] < y[0] || x[0] == y[0] && x[1] < y[1]
	})
	return out
}

// writeMetrics emits the family as a state gauge and an opens counter, each
// sample labelled la=key[0], lb=key[1]. One family at a time: the exposition
// format requires every sample of a family to follow its TYPE line.
func (f *breakers) writeMetrics(p *obs.PromWriter, la, lb, state, stateHelp, opens, opensHelp string) {
	entries := f.sorted()
	labels := func(k [2]string) []obs.Label {
		return []obs.Label{{Name: la, Value: k[0]}, {Name: lb, Value: k[1]}}
	}
	p.Family(state, "gauge", stateHelp)
	for _, e := range entries {
		p.Sample(state, labels(e.key), float64(e.br.State()))
	}
	p.Family(opens, "counter", opensHelp)
	for _, e := range entries {
		p.SampleInt(opens, labels(e.key), e.br.Opens())
	}
}

// vars renders the family for /debug/vars: "a/b" → state with the
// cumulative open count in parentheses.
func (f *breakers) vars() map[string]string {
	out := map[string]string{}
	for _, e := range f.sorted() {
		out[e.key[0]+"/"+e.key[1]] = fmt.Sprintf("%s (opens=%d)", e.br.State(), e.br.Opens())
	}
	return out
}
