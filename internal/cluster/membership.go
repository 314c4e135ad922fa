package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/xrand"
)

// PeerState is the failure detector's verdict on one peer.
type PeerState int

const (
	// StateAlive peers answered (or were introduced) recently.
	StateAlive PeerState = iota
	// StateSuspect peers have been silent past suspectAfter; they are still
	// routed to — the per-peer breaker decides whether that is wise — but a
	// suspect peer is the last choice when an alive one serves the shard.
	StateSuspect
	// StateDown peers were silent past downAfter or struck out by forward
	// failures. They are not routed to and not gossiped onward, and only
	// direct contact revives them.
	StateDown
)

// String names the state for logs and metrics labels.
func (s PeerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// The gossip and failure-detector constants.
const (
	// viewSize bounds the peers shared per gossip exchange.
	viewSize = 16
	// fanout is how many peers each Tick pushes to.
	fanout = 3
	// suspectAfter is the silence that demotes a peer to suspect.
	suspectAfter = 3 * time.Second
	// downAfter is the silence that demotes a peer to down.
	downAfter = 10 * time.Second
)

// Config tunes a Membership. The zero value (plus Self) is serviceable.
type Config struct {
	// Self identifies the local daemon; it is prepended to every shared
	// view and never expires.
	Self Peer
	// Replica is the local daemon's replica id within its shard (0 = the
	// shard's write primary). NewNode folds it into Self.
	Replica int
	// Strikes is how many consecutive forward failures take a peer straight
	// to down (default 3); any success resets the count.
	Strikes int
	// Seed drives the deterministic peer sampling: Tick's targets are a
	// pure function of (Seed, round, peer ids), bit-identical at any
	// GOMAXPROCS.
	Seed uint64
	// Now overrides the clock for tests; nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Strikes <= 0 {
		c.Strikes = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// member is one tracked peer with its failure-detector state.
type member struct {
	peer     Peer
	lastSeen time.Time
	strikes  int
	struck   bool // strikes reached the limit: down until direct contact
}

// Membership is the gossip view: a mutex-guarded peer table with a
// suspicion-based failure detector. All methods are safe for concurrent
// use; determinism comes from every sampling decision being a pure hash of
// (seed, round, ids) over a sorted snapshot, never from map order or
// timing.
type Membership struct {
	cfg Config

	mu    sync.Mutex
	self  Peer // cfg.Self plus the current live fields (SetSelfLive)
	peers map[string]*member
	round uint64
}

// NewMembership builds an empty membership around Self.
func NewMembership(cfg Config) *Membership {
	cfg = cfg.withDefaults()
	return &Membership{cfg: cfg, self: cfg.Self, peers: map[string]*member{}}
}

// Self returns the local peer identity, live fields included.
func (m *Membership) Self() Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

// SetSelfLive updates the live-log position advertised in every subsequent
// gossip exchange: the serving layer sets it from the log whenever gossip is
// about to read it, so peers learn who is ahead without a separate protocol.
func (m *Membership) SetSelfLive(epoch uint64, generation int, liveFP string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.self.Epoch = epoch
	m.self.Generation = generation
	m.self.LiveFP = liveFP
}

// Add introduces a statically configured peer (the -peers flag). It
// starts alive with a full grace period, exactly as if it had just
// answered.
func (m *Membership) Add(p Peer) {
	if p.ID == "" || p.ID == m.cfg.Self.ID {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.upsert(p, true)
}

// upsert merges one peer observation. direct reports first-hand contact
// (the peer spoke to us, answered us, or was configured explicitly): it
// refreshes liveness and revives down peers. Indirect observations (view
// entries relayed by a third party) only introduce unknown peers — they
// never refresh or revive known ones, so a stale view cannot resurrect a
// dead shard. Callers hold m.mu.
func (m *Membership) upsert(p Peer, direct bool) {
	e, ok := m.peers[p.ID]
	if !ok {
		m.peers[p.ID] = &member{peer: p, lastSeen: m.cfg.Now()}
		return
	}
	if direct {
		e.peer = p // shard/fingerprint may legitimately change on restart
		e.lastSeen = m.cfg.Now()
		e.strikes = 0
		e.struck = false
	}
}

// Receive merges one gossip exchange — the sender itself (direct contact)
// plus its relayed view (indirect) — and returns the bounded local view to
// answer with. It is the server half of push/pull; the client half feeds
// the response through Receive too, with from = the responder.
func (m *Membership) Receive(from Peer, view []Peer) []Peer {
	m.mu.Lock()
	if from.ID != "" && from.ID != m.cfg.Self.ID {
		m.upsert(from, true)
	}
	for _, p := range view {
		if p.ID == "" || p.ID == m.cfg.Self.ID {
			continue
		}
		m.upsert(p, false)
	}
	m.mu.Unlock()
	return m.View()
}

// ReportFailure strikes a peer after a failed forward; Strikes consecutive
// failures take it down without waiting for the silence timeout.
func (m *Membership) ReportFailure(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.peers[id]; ok {
		e.strikes++
		if e.strikes >= m.cfg.Strikes {
			e.struck = true
		}
	}
}

// ReportSuccess records first-hand evidence that a peer serves: a
// successful forward or gossip exchange.
func (m *Membership) ReportSuccess(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.peers[id]; ok {
		e.lastSeen = m.cfg.Now()
		e.strikes = 0
		e.struck = false
	}
}

// state derives the failure-detector verdict at time now. Callers hold m.mu.
func (m *Membership) state(e *member, now time.Time) PeerState {
	if e.struck {
		return StateDown
	}
	silence := now.Sub(e.lastSeen)
	switch {
	case silence >= downAfter:
		return StateDown
	case silence >= suspectAfter:
		return StateSuspect
	}
	return StateAlive
}

// PeerStatus is one row of the membership table, for /readyz, metrics and
// tests.
type PeerStatus struct {
	Peer    Peer      `json:"peer"`
	State   PeerState `json:"-"`
	StateS  string    `json:"state"`
	Strikes int       `json:"strikes,omitempty"`
}

// Snapshot lists every tracked peer with its current state, sorted by ID.
func (m *Membership) Snapshot() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	out := make([]PeerStatus, 0, len(m.peers))
	for _, e := range m.peers {
		st := m.state(e, now)
		out = append(out, PeerStatus{Peer: e.peer, State: st, StateS: st.String(), Strikes: e.strikes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.ID < out[j].Peer.ID })
	return out
}

// States maps every tracked peer id to its current failure-detector state
// in one lock acquisition — the hot forward path ranks replicas with this
// instead of the heavier Snapshot (no sorting, no state strings).
func (m *Membership) States() map[string]PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	out := make(map[string]PeerState, len(m.peers))
	for id, e := range m.peers {
		out[id] = m.state(e, now)
	}
	return out
}

// Routable returns the peers a forward may target — alive first, then
// suspect, each group sorted by ID. Down peers are excluded.
func (m *Membership) Routable() []Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	var alive, suspect []Peer
	for _, e := range m.peers {
		switch m.state(e, now) {
		case StateAlive:
			alive = append(alive, e.peer)
		case StateSuspect:
			suspect = append(suspect, e.peer)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })
	sort.Slice(suspect, func(i, j int) bool { return suspect[i].ID < suspect[j].ID })
	return append(alive, suspect...)
}

// View returns the bounded view shared in gossip exchanges: self first,
// then up to viewSize non-down peers. When more qualify than fit, the kept
// subset is a deterministic hash sample varied per round, so every peer
// eventually propagates (plain truncation of a sorted list would starve the
// tail forever).
func (m *Membership) View() []Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	var candidates []Peer
	for _, e := range m.peers {
		if m.state(e, now) != StateDown {
			candidates = append(candidates, e.peer)
		}
	}
	candidates = m.sample(candidates, viewSize, m.round)
	return append([]Peer{m.self}, candidates...)
}

// Tick advances one gossip round and returns this round's push targets: a
// deterministic pure-hash sample of fanout non-down peers. Rounds are
// counted internally, so the schedule is a pure function of (Seed, round
// sequence, peer ids) regardless of worker count or wall clock.
func (m *Membership) Tick() []Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.round++
	now := m.cfg.Now()
	var candidates []Peer
	for _, e := range m.peers {
		if m.state(e, now) != StateDown {
			candidates = append(candidates, e.peer)
		}
	}
	return m.sample(candidates, fanout, m.round)
}

// Round reports the gossip rounds ticked so far.
func (m *Membership) Round() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.round
}

// sample keeps up to k of the candidates, ordered by
// Hash64(seed, round, id): a deterministic shuffle that varies per round
// and never consults a shared RNG. Callers hold m.mu.
func (m *Membership) sample(candidates []Peer, k int, round uint64) []Peer {
	sort.Slice(candidates, func(i, j int) bool {
		hi := xrand.Hash64(m.cfg.Seed, round, xrand.HashString(candidates[i].ID))
		hj := xrand.Hash64(m.cfg.Seed, round, xrand.HashString(candidates[j].ID))
		if hi != hj {
			return hi < hj
		}
		return candidates[i].ID < candidates[j].ID
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates
}

// CountByState tallies the membership for metrics gauges.
func (m *Membership) CountByState() map[PeerState]int {
	counts := map[PeerState]int{StateAlive: 0, StateSuspect: 0, StateDown: 0}
	for _, st := range m.Snapshot() {
		counts[st.State]++
	}
	return counts
}

// String summarizes the table for logs.
func (m *Membership) String() string {
	c := m.CountByState()
	return fmt.Sprintf("cluster: %d alive, %d suspect, %d down",
		c[StateAlive], c[StateSuspect], c[StateDown])
}
