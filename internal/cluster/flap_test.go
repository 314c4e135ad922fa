package cluster

import (
	"testing"
	"time"
)

// routableIDs flattens Routable() for membership assertions.
func routableIDs(m *Membership) map[string]bool {
	out := map[string]bool{}
	for _, p := range m.Routable() {
		out[p.ID] = true
	}
	return out
}

// TestFlapNotMarkedDown is the flapping gate: a peer that oscillates
// alive → suspect → alive — silent past suspectAfter but always answering
// again before downAfter — must never be observed down, over many flap
// cycles and for several flap cadences. Marking a flapping peer down would
// turn every transient network hiccup into a full shard outage.
func TestFlapNotMarkedDown(t *testing.T) {
	cases := []struct {
		name    string
		silence time.Duration // how long the peer stays quiet each cycle
		suspect bool          // long enough to look suspect at the silence peak?
	}{
		{"within-suspect-window", 2 * time.Second, false},
		{"flaps-to-suspect", 5 * time.Second, true},
		{"one-tick-under-down", 10*time.Second - time.Millisecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			m := NewMembership(testConfig("self", clk))
			m.Add(Peer{ID: "flappy", Shard: "1", Fingerprint: "f"})
			for cycle := 0; cycle < 8; cycle++ {
				clk.advance(tc.silence)
				st := states(m)["flappy"]
				if st == StateDown {
					t.Fatalf("cycle %d: flapping peer marked down after %v of silence (downAfter is 10s)",
						cycle, tc.silence)
				}
				if tc.suspect && st != StateSuspect {
					t.Fatalf("cycle %d: want suspect at the silence peak, got %v", cycle, st)
				}
				if !routableIDs(m)["flappy"] {
					t.Fatalf("cycle %d: flapping peer dropped from the routable set while %v", cycle, st)
				}
				// The peer answers a gossip exchange: direct contact, back to
				// alive with a full grace period.
				m.ReportSuccess("flappy")
				if got := states(m)["flappy"]; got != StateAlive {
					t.Fatalf("cycle %d: peer not alive after direct contact, got %v", cycle, got)
				}
			}
		})
	}
}

// TestStrikesDoNotReviveDownPeer pins the one-way-street property of the
// failure detector: once a peer is down — struck out by forward failures or
// silent past downAfter — further failure reports, indirect gossip mentions
// and strike-count resets via more failures must never put it back into the
// routable set. Only first-hand contact (ReportSuccess, Receive from the
// peer itself, explicit Add) revives.
func TestStrikesDoNotReviveDownPeer(t *testing.T) {
	type step struct {
		advance  time.Duration // clock advance before the action
		failures int           // ReportFailure calls
		indirect bool          // relay the peer in a third party's view
	}
	cases := []struct {
		name string
		down func(m *Membership, clk *fakeClock) // how the peer goes down
		then []step
	}{
		{
			name: "struck-out-then-more-failures",
			down: func(m *Membership, clk *fakeClock) {
				for i := 0; i < 3; i++ {
					m.ReportFailure("p")
				}
			},
			then: []step{{failures: 5}, {advance: time.Second, failures: 1}},
		},
		{
			name: "silent-then-failures-wrap-strikes",
			down: func(m *Membership, clk *fakeClock) { clk.advance(11 * time.Second) },
			// 2 failures stay under Strikes=3: if strikes were consulted
			// before silence, the low count must not read as healthy.
			then: []step{{failures: 2}},
		},
		{
			name: "struck-out-then-gossip-relay",
			down: func(m *Membership, clk *fakeClock) {
				for i := 0; i < 3; i++ {
					m.ReportFailure("p")
				}
			},
			then: []step{{indirect: true}, {advance: time.Second, indirect: true, failures: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			m := NewMembership(testConfig("self", clk))
			m.Add(Peer{ID: "p", Shard: "1", Fingerprint: "f"})
			m.Add(Peer{ID: "relay", Shard: "0", Fingerprint: "f"})
			tc.down(m, clk)
			if got := states(m)["p"]; got != StateDown {
				t.Fatalf("setup: peer not down, got %v", got)
			}
			for i, s := range tc.then {
				clk.advance(s.advance)
				for f := 0; f < s.failures; f++ {
					m.ReportFailure("p")
				}
				if s.indirect {
					m.Receive(Peer{ID: "relay", Shard: "0", Fingerprint: "f"},
						[]Peer{{ID: "p", Shard: "1", Fingerprint: "f"}})
				}
				if got := states(m)["p"]; got != StateDown {
					t.Fatalf("step %d: down peer revived to %v", i, got)
				}
				if routableIDs(m)["p"] {
					t.Fatalf("step %d: down peer back in the routable set", i)
				}
			}
			// The legitimate revival path still works: the peer itself answers.
			m.ReportSuccess("p")
			if got := states(m)["p"]; got != StateAlive {
				t.Fatalf("direct contact did not revive: %v", got)
			}
		})
	}
}
