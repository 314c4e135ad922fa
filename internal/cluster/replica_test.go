package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestGossipPhaseDistinct pins the gossip-jitter satellite: the phase offset
// is a pure hash of the peer id — deterministic at any GOMAXPROCS, inside
// [0, interval), and distinct across co-started peers so a replica set never
// gossips (or runs anti-entropy) in lockstep rounds.
func TestGossipPhaseDistinct(t *testing.T) {
	const interval = time.Second
	ids := []string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070",
		"10.0.0.4:7070", "10.0.0.5:7070", "10.0.0.6:7070"}
	seen := map[time.Duration]string{}
	for _, id := range ids {
		phase := GossipPhase(id, interval)
		if phase < 0 || phase >= interval {
			t.Fatalf("GossipPhase(%q) = %v, outside [0, %v)", id, phase, interval)
		}
		if prev, dup := seen[phase]; dup {
			t.Fatalf("peers %q and %q share phase %v — lockstep rounds", prev, id, phase)
		}
		seen[phase] = id
	}
	// Determinism under contention: hammer the same ids from GOMAXPROCS
	// goroutines and require every call to reproduce the sequential answer.
	var wg sync.WaitGroup
	errs := make(chan error, len(ids)*runtime.GOMAXPROCS(0))
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for phase, id := range seen {
				if got := GossipPhase(id, interval); got != phase {
					errs <- fmt.Errorf("GossipPhase(%q) = %v, want %v", id, got, phase)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if GossipPhase("any", 0) != 0 {
		t.Fatal("zero interval must yield zero phase")
	}
}

// newReplicatedNodes builds one shard ("0") served by k replicas plus one
// peer of the sibling shard ("1"), all over the same graph, with full static
// membership.
func newReplicatedNodes(t *testing.T, k int) []*Node {
	t.Helper()
	g := testGraph(t, 300)
	nodes := make([]*Node, 0, k+1)
	for i := 0; i < k; i++ {
		n, err := NewNode(g, mustPrefix(t, "0"), fmt.Sprintf("r%d:1", i), Config{Replica: i})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	sib, err := NewNode(g, mustPrefix(t, "1"), "s0:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, sib)
	for _, n := range nodes {
		for _, p := range nodes {
			if p != n {
				n.Members().Add(p.Self())
			}
		}
	}
	return nodes
}

// TestOwnersOfReplicaOrder pins the failover sequence: every routable
// replica of the owning shard, alive before suspect, replica id breaking
// ties within a liveness class.
func TestOwnersOfReplicaOrder(t *testing.T) {
	nodes := newReplicatedNodes(t, 3)
	sib := nodes[3]
	// A vertex owned by shard "0", resolved from the sibling shard.
	v := -1
	for u := 0; u < nodes[0].Graph().N(); u++ {
		if nodes[0].Owned(u) {
			v = u
			break
		}
	}
	if v < 0 {
		t.Fatal("shard 0 owns nothing")
	}
	owners := sib.OwnersOf(v)
	if len(owners) != 3 {
		t.Fatalf("OwnersOf = %d peers, want the 3 replicas", len(owners))
	}
	for i, p := range owners {
		if p.Replica != i {
			t.Fatalf("owner %d has replica id %d — failover order broken: %+v", i, p.Replica, owners)
		}
	}
	// Striking the primary out moves it behind the surviving replicas.
	for i := 0; i < 3; i++ {
		sib.Members().ReportFailure(owners[0].ID)
	}
	owners = sib.OwnersOf(v)
	if len(owners) != 2 || owners[0].Replica != 1 || owners[1].Replica != 2 {
		t.Fatalf("after striking the primary: owners %+v, want replicas 1,2", owners)
	}
}

// TestReplicaSetScope pins the shipping target set: same-shard routable
// peers only, never self, never the sibling shard.
func TestReplicaSetScope(t *testing.T) {
	nodes := newReplicatedNodes(t, 2)
	rs := nodes[0].ReplicaSet()
	if len(rs) != 1 || rs[0].ID != "r1:1" {
		t.Fatalf("primary's replica set = %+v, want [r1:1]", rs)
	}
	if rs := nodes[2].ReplicaSet(); len(rs) != 0 {
		t.Fatalf("sibling shard's replica set = %+v, want empty", rs)
	}
}

// TestSetLivePropagates pins the live-position advertisement: SetLive shows
// up in Self and travels one gossip exchange to a peer's view of us.
func TestSetLivePropagates(t *testing.T) {
	nodes := newReplicatedNodes(t, 2)
	primary, replica := nodes[0], nodes[1]
	primary.SetLive(7, 1, "00000000000000aa")
	self := primary.Self()
	if self.Epoch != 7 || self.Generation != 1 || self.LiveFP != "00000000000000aa" {
		t.Fatalf("Self after SetLive = %+v", self)
	}
	replica.Members().Receive(primary.Self(), nil)
	for _, p := range replica.ReplicaSet() {
		if p.ID == self.ID {
			if p.Epoch != 7 || p.LiveFP != "00000000000000aa" {
				t.Fatalf("replica's view of primary = %+v, live fields lost", p)
			}
			return
		}
	}
	t.Fatal("primary missing from replica's set")
}

// TestRingSequence pins the client failover order: the sequence starts at
// Pick's winner, walks distinct endpoints in ring order, and is stable for a
// key.
func TestRingSequence(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1"})
	for key := uint64(0); key < 200; key++ {
		seq := r.Sequence(key)
		if len(seq) != 3 {
			t.Fatalf("Sequence(%d) = %v, want all 3 endpoints", key, seq)
		}
		if seq[0] != r.Pick(key) {
			t.Fatalf("Sequence(%d) head %q != Pick %q", key, seq[0], r.Pick(key))
		}
		seen := map[string]bool{}
		for _, a := range seq {
			if seen[a] {
				t.Fatalf("Sequence(%d) repeats %q", key, a)
			}
			seen[a] = true
		}
	}
}
