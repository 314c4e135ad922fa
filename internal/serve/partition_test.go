package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/torus"
)

// blackhole is a two-sided network partition for tests: every cluster call
// between a cut pair of daemons fails at the transport, in both directions,
// until healed. The serving daemons stay alive — only the network between
// them is gone, which is exactly the split-brain scenario.
type blackhole struct {
	mu  sync.Mutex
	cut map[[2]string]bool
}

func newBlackhole() *blackhole { return &blackhole{cut: map[[2]string]bool{}} }

// Partition cuts both directions between a and b.
func (b *blackhole) Partition(a, c string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cut[[2]string{a, c}] = true
	b.cut[[2]string{c, a}] = true
}

// Heal restores both directions between a and b.
func (b *blackhole) Heal(a, c string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.cut, [2]string{a, c})
	delete(b.cut, [2]string{c, a})
}

func (b *blackhole) blocked(from, to string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cut[[2]string{from, to}]
}

// bhTransport is the per-daemon RoundTripper consulting the shared
// blackhole before letting a request out.
type bhTransport struct {
	bh   *blackhole
	self string
}

func (t *bhTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.bh.blocked(t.self, r.URL.Host) {
		return nil, fmt.Errorf("blackhole: %s -> %s partitioned", t.self, r.URL.Host)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestPartitionNoSplitBrain is the partition-injection chaos drill: a
// two-sided blackhole separates a replica from its shard primary mid-stream.
// The invariants under test:
//
//  1. No split-brain: the partitioned replica keeps refusing writes — the
//     write role does not fail over, so the two sides can never diverge.
//  2. The primary takes the unreachable replica down after its strikes, and
//     an indirectly relayed view cannot resurrect it — only direct contact.
//  3. After the heal, one gossip exchange plus one anti-entropy round make
//     the replica bit-identical to the primary again: it never keeps serving
//     its stale generation once repair has run.
func TestPartitionNoSplitBrain(t *testing.T) {
	nw := testNetwork(t, 100, 9)
	bh := newBlackhole()
	daemons := newReplicaSet(t, nw, 2,
		Config{RequestTimeout: time.Second},
		func(addr string) *http.Client {
			return &http.Client{Transport: &bhTransport{bh: bh, self: addr}}
		})
	primary, replica := daemons[0], daemons[1]

	// Healthy stream first: one batch acked and shipped.
	resp, _, bad := postMutate(t, primary.ts.URL, MutateRequest{
		Graph: "live", Ops: addVertexOps(nw, nw.Graph.N()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-partition mutate: status %d (%s)", resp.StatusCode, bad.Error)
	}
	waitPosition(t, replica, primary.log.Position())

	bh.Partition(primary.addr, replica.addr)

	// The primary keeps acking writes — availability on the write side — and
	// every ship fails into the blackhole until the strikes take the replica
	// down (default Strikes is 3). The writes continue inside the wait loop:
	// a gossip reply that was already in flight when the partition dropped
	// resets the strike count when it lands, so a fixed count of three could
	// wedge the peer at suspect — only fresh failures flip the detector.
	next := nw.Graph.N() + 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _, bad := postMutate(t, primary.ts.URL, MutateRequest{
			Graph: "live", Ops: addVertexOps(nw, next),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partitioned mutate %d: status %d (%s)", next, resp.StatusCode, bad.Error)
		}
		next++
		if next < nw.Graph.N()+4 {
			continue
		}
		if st := primary.srv.Stats().Cluster.Peers[replica.addr]; st == "down" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never went down on the primary: %+v", primary.srv.Stats().Cluster.Peers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fails := primary.srv.Stats().Cluster.Replication.ShipFailures; fails < 3 {
		t.Fatalf("ship failures = %d, want >= 3 into the blackhole", fails)
	}

	// No split-brain: the cut-off replica still refuses writes.
	wr, _, _ := postMutate(t, replica.ts.URL, MutateRequest{
		Graph: "live", Ops: addVertexOps(nw, nw.Graph.N()+1),
	})
	if wr.StatusCode != http.StatusConflict {
		t.Fatalf("partitioned replica accepted a write: status %d, want 409", wr.StatusCode)
	}
	if replica.log.Position().Seq != 1 {
		t.Fatalf("partitioned replica moved to seq %d without the primary", replica.log.Position().Seq)
	}

	// A third party relaying the replica's old identity is indirect evidence;
	// it must not resurrect the down peer.
	primary.node.Members().Receive(cluster.Peer{}, []cluster.Peer{replica.node.Self()})
	if st := primary.srv.Stats().Cluster.Peers[replica.addr]; st != "down" {
		t.Fatalf("indirect view revived the down replica: %s", st)
	}
	// And because it is down, it leaves the ship set: a write during the
	// partition no longer even attempts it.
	failsBefore := primary.srv.Stats().Cluster.Replication.ShipFailures
	resp, _, _ = postMutate(t, primary.ts.URL, MutateRequest{
		Graph: "live", Ops: addVertexOps(nw, next),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate with replica down: status %d", resp.StatusCode)
	}
	time.Sleep(20 * time.Millisecond)
	if fails := primary.srv.Stats().Cluster.Replication.ShipFailures; fails != failsBefore {
		t.Fatalf("down replica still shipped to: failures %d -> %d", failsBefore, fails)
	}

	bh.Heal(primary.addr, replica.addr)

	// One direct gossip exchange heals membership in both directions — the
	// replica contacts the primary (direct revival on the primary's side) and
	// learns the primary's live position from the answer.
	gossipOnce(t, replica, primary)
	if st := primary.srv.Stats().Cluster.Peers[replica.addr]; st != "alive" {
		t.Fatalf("direct contact did not revive the replica on the primary: %s", st)
	}

	// One anti-entropy round later the replica is bit-identical again: no
	// stale-generation serving survives the heal. The replica held at seq 1,
	// so the pull covers every batch acked during the partition.
	want := primary.log.Position().Seq - 1
	if got := replica.srv.AntiEntropyRound(context.Background()); got != want {
		t.Fatalf("post-heal anti-entropy pulled %d batches, want %d", got, want)
	}
	if got, want := replica.log.Position(), primary.log.Position(); got != want {
		t.Fatalf("post-heal replica at %+v, want %+v", got, want)
	}
	pl, rl := readyLiveOf(t, primary), readyLiveOf(t, replica)
	if rl.Fingerprint != pl.Fingerprint || rl.Generation != pl.Generation || rl.Epoch != pl.Epoch {
		t.Fatalf("post-heal replica serves (fp=%s gen=%d epoch=%d), primary (fp=%s gen=%d epoch=%d)",
			rl.Fingerprint, rl.Generation, rl.Epoch, pl.Fingerprint, pl.Generation, pl.Epoch)
	}
}

// TestGossipOverPeerClient runs the gossip loop cmd/smallworldd runs: the
// server is the transport, so exchanges ride the cluster client like every
// other peer call. Daemon a is seeded with b's bare address, as the -peers
// flag does, and b with nothing; a few rounds later each knows the other's
// shard. Then the blackhole cuts them, every exchange fails, and the strikes
// take each peer down on the other side.
func TestGossipOverPeerClient(t *testing.T) {
	nw := testNetwork(t, 100, 9)
	bh := newBlackhole()
	daemons := make([]*shardDaemon, 2)
	for i, spec := range []string{"0", "1"} {
		srv := New(Config{RequestIDSalt: uint64(i + 1)})
		srv.AddNetwork(DefaultGraph, nw)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		addr := strings.TrimPrefix(ts.URL, "http://")
		p, err := torus.ParsePrefix(spec)
		if err != nil {
			t.Fatal(err)
		}
		node, err := cluster.NewNode(nw.Graph, p, addr, cluster.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv.EnableCluster(node, &http.Client{Transport: &bhTransport{bh: bh, self: addr}})
		daemons[i] = &shardDaemon{srv: srv, ts: ts, node: node, addr: addr}
	}
	a, b := daemons[0], daemons[1]
	a.node.Members().Add(cluster.Peer{ID: b.addr, Fingerprint: b.node.Self().Fingerprint})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, d := range daemons {
		wg.Add(1)
		go func(d *shardDaemon) {
			defer wg.Done()
			d.node.RunGossip(ctx, 10*time.Millisecond, d.srv, nil)
		}(d)
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	// waitPeer polls d's membership until peer id is known in state with
	// shard, or fails the test.
	waitPeer := func(d *shardDaemon, id, shard, state string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, ps := range d.node.Members().Snapshot() {
				if ps.Peer.ID == id && ps.Peer.Shard == shard && ps.StateS == state {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw %s on shard %q %s: %+v", d.addr, id, shard, state, d.node.Members().Snapshot())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitPeer(a, b.addr, "1", "alive")
	waitPeer(b, a.addr, "0", "alive")

	bh.Partition(a.addr, b.addr)
	waitPeer(a, b.addr, "1", "down")
	waitPeer(b, a.addr, "0", "down")
}
