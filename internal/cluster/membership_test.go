package cluster

import (
	"reflect"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testConfig(self string, clk *fakeClock) Config {
	return Config{
		Self:    Peer{ID: self, Shard: "0", Fingerprint: "f"},
		Strikes: 3,
		Seed:    42,
		Now:     clk.now,
	}
}

func states(m *Membership) map[string]PeerState {
	out := map[string]PeerState{}
	for _, st := range m.Snapshot() {
		out[st.Peer.ID] = st.State
	}
	return out
}

// TestSilenceDemotion walks one peer through alive → suspect → down purely
// by advancing the injected clock.
func TestSilenceDemotion(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(testConfig("self:1", clk))
	m.Add(Peer{ID: "b:1"})

	if got := states(m)["b:1"]; got != StateAlive {
		t.Fatalf("fresh peer state %v, want alive", got)
	}
	clk.advance(3 * time.Second)
	if got := states(m)["b:1"]; got != StateSuspect {
		t.Fatalf("after suspectAfter state %v, want suspect", got)
	}
	clk.advance(7 * time.Second)
	if got := states(m)["b:1"]; got != StateDown {
		t.Fatalf("after downAfter state %v, want down", got)
	}
	if r := m.Routable(); len(r) != 0 {
		t.Fatalf("down peer still routable: %v", r)
	}

	// Direct contact revives.
	m.Receive(Peer{ID: "b:1"}, nil)
	if got := states(m)["b:1"]; got != StateAlive {
		t.Fatalf("after direct contact state %v, want alive", got)
	}
}

// TestStrikesDemotion checks that Strikes consecutive forward failures take
// a peer down without waiting for silence, and any success resets.
func TestStrikesDemotion(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(testConfig("self:1", clk))
	m.Add(Peer{ID: "b:1"})

	m.ReportFailure("b:1")
	m.ReportFailure("b:1")
	if got := states(m)["b:1"]; got != StateAlive {
		t.Fatalf("two strikes already demoted: %v", got)
	}
	m.ReportSuccess("b:1")
	m.ReportFailure("b:1")
	m.ReportFailure("b:1")
	if got := states(m)["b:1"]; got != StateAlive {
		t.Fatalf("success did not reset strikes: %v", got)
	}
	m.ReportFailure("b:1")
	if got := states(m)["b:1"]; got != StateDown {
		t.Fatalf("three strikes state %v, want down", got)
	}
	// Struck peers only revive on direct contact.
	m.ReportSuccess("b:1")
	if got := states(m)["b:1"]; got != StateAlive {
		t.Fatalf("success after strike-out state %v, want alive", got)
	}
}

// TestIndirectCannotResurrect checks the zombie guard: a third-party view
// that still lists a down peer neither revives nor refreshes it.
func TestIndirectCannotResurrect(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(testConfig("self:1", clk))
	m.Add(Peer{ID: "dead:1"})
	clk.advance(10 * time.Second)
	if got := states(m)["dead:1"]; got != StateDown {
		t.Fatalf("setup: state %v, want down", got)
	}

	// Gossip from a live peer relaying the dead one.
	m.Receive(Peer{ID: "c:1"}, []Peer{{ID: "dead:1"}})
	if got := states(m)["dead:1"]; got != StateDown {
		t.Fatalf("indirect view resurrected a down peer: %v", got)
	}
	if got := states(m)["c:1"]; got != StateAlive {
		t.Fatalf("direct sender not alive: %v", got)
	}

	// But an unknown peer in the same view is introduced.
	m.Receive(Peer{ID: "c:1"}, []Peer{{ID: "new:1"}})
	if got, ok := states(m)["new:1"]; !ok || got != StateAlive {
		t.Fatalf("indirect introduction failed: %v ok=%v", got, ok)
	}
}

// TestTickDeterminism checks the push-target schedule is a pure function of
// (seed, round sequence, ids): two memberships with the same inputs produce
// identical target sequences, and a different seed produces a different one.
func TestTickDeterminism(t *testing.T) {
	build := func(seed uint64) *Membership {
		clk := newFakeClock()
		cfg := testConfig("self:1", clk)
		cfg.Seed = seed
		m := NewMembership(cfg)
		for _, id := range []string{"a:1", "b:1", "c:1", "d:1", "e:1"} {
			m.Add(Peer{ID: id})
		}
		return m
	}
	seq := func(m *Membership, rounds int) [][]string {
		var out [][]string
		for i := 0; i < rounds; i++ {
			var ids []string
			for _, p := range m.Tick() {
				ids = append(ids, p.ID)
			}
			out = append(out, ids)
		}
		return out
	}

	s1, s2 := seq(build(7), 20), seq(build(7), 20)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", s1, s2)
	}
	if reflect.DeepEqual(s1, seq(build(8), 20)) {
		t.Fatal("different seeds produced identical schedules")
	}
	// The schedule varies across rounds (not stuck on one sample).
	varied := false
	for i := 1; i < len(s1); i++ {
		if !reflect.DeepEqual(s1[i], s1[0]) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("sampling never varied across 20 rounds")
	}
}

// TestViewBounded checks View never exceeds viewSize+1 entries, always leads
// with self, and excludes down peers: of viewSize+4 peers one is down, and
// more than viewSize remain.
func TestViewBounded(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(testConfig("self:1", clk))
	for i := 0; i < viewSize+4; i++ {
		m.Add(Peer{ID: string(rune('a'+i)) + ":1"})
	}
	m.ReportFailure("a:1")
	m.ReportFailure("a:1")
	m.ReportFailure("a:1")

	v := m.View()
	if len(v) != viewSize+1 {
		t.Fatalf("view size %d, want %d (self + viewSize)", len(v), viewSize+1)
	}
	if v[0].ID != "self:1" {
		t.Fatalf("view does not lead with self: %v", v)
	}
	for _, p := range v[1:] {
		if p.ID == "a:1" {
			t.Fatal("down peer shared in view")
		}
	}
}

// TestRoutableOrder checks alive peers precede suspect ones.
func TestRoutableOrder(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(testConfig("self:1", clk))
	m.Add(Peer{ID: "old:1"})
	clk.advance(4 * time.Second) // old:1 now suspect
	m.Add(Peer{ID: "fresh:1"})

	r := m.Routable()
	if len(r) != 2 || r[0].ID != "fresh:1" || r[1].ID != "old:1" {
		t.Fatalf("routable order %v, want [fresh:1 old:1]", r)
	}
}

// TestSelfNeverTracked checks self and empty IDs are ignored everywhere.
func TestSelfNeverTracked(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(testConfig("self:1", clk))
	m.Add(Peer{ID: "self:1"})
	m.Add(Peer{ID: ""})
	m.Receive(Peer{ID: "self:1"}, []Peer{{ID: "self:1"}, {ID: ""}})
	if n := len(m.Snapshot()); n != 0 {
		t.Fatalf("tracked %d peers, want 0", n)
	}
}
