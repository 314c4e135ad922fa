package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/torus"
)

// replicaDaemon is one member of a replicated shard in tests: the clustered
// routing slot on DefaultGraph plus the replicated live slot "live" driven
// by its own mutation log, exactly as cmd/smallworldd wires them.
type replicaDaemon struct {
	srv  *Server
	ts   *httptest.Server
	node *cluster.Node
	log  *mutate.Log
	addr string
}

// newReplicaSet builds k daemons all serving shard "0" of nw as replicas
// 0..k-1, each with an empty mutation log on the "live" slot, with full
// static membership. clientFor may inject a per-daemon cluster HTTP client
// (nil for the default).
func newReplicaSet(t testing.TB, nw *core.Network, k int, cfg Config, clientFor func(addr string) *http.Client) []*replicaDaemon {
	t.Helper()
	prefix, err := torus.ParsePrefix("0")
	if err != nil {
		t.Fatal(err)
	}
	daemons := make([]*replicaDaemon, k)
	for i := 0; i < k; i++ {
		c := cfg
		c.RequestIDSalt = uint64(i + 1)
		srv := New(c)
		srv.AddNetwork(DefaultGraph, nw)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(srv.Close) // httptest's Close does not see hijacked hop streams
		addr := strings.TrimPrefix(ts.URL, "http://")
		node, err := cluster.NewNode(nw.Graph, prefix, addr, cluster.Config{Seed: 1, Replica: i})
		if err != nil {
			t.Fatal(err)
		}
		var client *http.Client
		if clientFor != nil {
			client = clientFor(addr)
		}
		srv.EnableCluster(node, client)
		log, err := mutate.Open(t.TempDir(), nw.Graph, mutate.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		if err := srv.EnableMutation(log, "live"); err != nil {
			t.Fatal(err)
		}
		daemons[i] = &replicaDaemon{srv: srv, ts: ts, node: node, log: log, addr: addr}
	}
	// Membership is seeded after EnableMutation so every Self carries its
	// starting live position, like the -replicas flag plus first gossip.
	for _, d := range daemons {
		for _, p := range daemons {
			if p != d {
				d.node.Members().Add(p.node.Self())
			}
		}
	}
	return daemons
}

// addVertexOps is a valid mutation batch against any live state: one join
// wired to two base vertices.
func addVertexOps(nw *core.Network, next int) []mutate.Op {
	return []mutate.Op{
		{Op: mutate.OpAddVertex, Pos: []float64{0.25, 0.75}, W: 2.0},
		{Op: mutate.OpAddEdge, U: next, V: 0},
		{Op: mutate.OpAddEdge, U: next, V: 1},
	}
}

// waitPosition polls until the daemon's log reaches want (or the deadline).
func waitPosition(t testing.TB, d *replicaDaemon, want mutate.Position) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d.log.Position() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never converged: at %+v, want %+v", d.addr, d.log.Position(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gossipOnce runs one push/pull exchange from d to peer the way RunGossip
// does: d's identity and view go out, peer's answer is merged into d's
// membership. Both sides set their self entry from their log first, so each
// learns the other's current position.
func gossipOnce(t *testing.T, d, peer *replicaDaemon) {
	t.Helper()
	gr, err := d.srv.Exchange(context.Background(), peer.node.Self(),
		cluster.GossipRequest{From: d.node.Self(), View: d.node.Members().View()})
	if err != nil {
		t.Fatalf("gossip %s -> %s: %v", d.addr, peer.addr, err)
	}
	d.node.Members().Receive(gr.Self, gr.View)
}

// TestGossipCarriesAppliedEpoch: a gossip request sent right after a bare
// Log.Apply — no HTTP ack, no serving-layer hook — carries the new epoch,
// because the sender's live fields are set when the exchange goes out.
func TestGossipCarriesAppliedEpoch(t *testing.T) {
	nw := testNetwork(t, 100, 10)
	daemons := newReplicaSet(t, nw, 2, Config{RequestTimeout: 5 * time.Second}, nil)
	primary, replica := daemons[0], daemons[1]
	if _, err := primary.log.Apply(addVertexOps(nw, nw.Graph.N())); err != nil {
		t.Fatal(err)
	}
	gossipOnce(t, primary, replica)
	want := primary.log.Position()
	for _, ps := range replica.node.Members().Snapshot() {
		if ps.Peer.ID == primary.addr {
			if ps.Peer.Epoch != want.Epoch || ps.Peer.LiveFP != want.LiveFP {
				t.Fatalf("replica heard the primary at (epoch %d, fp %s), want (%d, %s)",
					ps.Peer.Epoch, ps.Peer.LiveFP, want.Epoch, want.LiveFP)
			}
			return
		}
	}
	t.Fatalf("replica does not know the primary %s", primary.addr)
}

// readyLiveOf fetches the live section of the "live" slot from /readyz —
// the same surface the CI replication-smoke job gates on.
func readyLiveOf(t *testing.T, d *replicaDaemon) *ReadyLive {
	t.Helper()
	resp, err := http.Get(d.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	g, ok := ready.Graphs["live"]
	if !ok || g.Live == nil {
		t.Fatalf("%s /readyz has no live section for slot live: %+v", d.addr, ready.Graphs)
	}
	return g.Live
}

// TestReplicaMutateReadOnly pins the single-writer contract: a non-primary
// replica answers /admin/mutate with 409 and applies nothing — split-brain
// is ruled out by construction, not by election.
func TestReplicaMutateReadOnly(t *testing.T) {
	nw := testNetwork(t, 100, 5)
	daemons := newReplicaSet(t, nw, 2, Config{RequestTimeout: 5 * time.Second}, nil)
	replica := daemons[1]
	resp, _, bad := postMutate(t, replica.ts.URL, MutateRequest{
		Graph: "live", Ops: addVertexOps(nw, nw.Graph.N()),
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mutate at replica 1: status %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(bad.Error, "read-only") {
		t.Fatalf("409 body does not name the read-only contract: %q", bad.Error)
	}
	if replica.log.Position().Seq != 0 {
		t.Fatal("refused mutation still journaled a batch")
	}
}

// TestReplicateShipConvergence pins the tentpole happy path: batches acked
// at the primary are shipped to every replica, and the replica set converges
// to bit-identical positions — same seq, epoch, generation and live
// fingerprint, visible both in the logs and on /readyz.
func TestReplicateShipConvergence(t *testing.T) {
	nw := testNetwork(t, 100, 6)
	daemons := newReplicaSet(t, nw, 3, Config{RequestTimeout: 5 * time.Second}, nil)
	primary := daemons[0]

	for b := 0; b < 3; b++ {
		resp, _, bad := postMutate(t, primary.ts.URL, MutateRequest{
			Graph: "live", Ops: addVertexOps(nw, nw.Graph.N()+b),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate batch %d: status %d (%s)", b, resp.StatusCode, bad.Error)
		}
	}
	want := primary.log.Position()
	if want.Seq != 3 {
		t.Fatalf("primary at seq %d, want 3", want.Seq)
	}
	for _, d := range daemons[1:] {
		waitPosition(t, d, want)
	}

	primaryLive := readyLiveOf(t, primary)
	for _, d := range daemons[1:] {
		live := readyLiveOf(t, d)
		if live.Fingerprint != primaryLive.Fingerprint || live.Generation != primaryLive.Generation {
			t.Fatalf("%s serves live (fp=%s gen=%d), primary serves (fp=%s gen=%d)",
				d.addr, live.Fingerprint, live.Generation, primaryLive.Fingerprint, primaryLive.Generation)
		}
		st := d.srv.Stats().Cluster.Replication
		if st == nil || st.Primary || st.ImportedBatches != 3 {
			t.Fatalf("%s replication stats = %+v, want 3 imported batches on a non-primary", d.addr, st)
		}
	}
	// The replicas converge when they import; the primary counts a batch as
	// shipped when the ack comes back, a moment later on its ship goroutine.
	waitFor(t, func() bool {
		st := primary.srv.Stats().Cluster.Replication
		return st != nil && st.Primary && st.ShippedBatches >= 6
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestReplicateReshipWhenGapClosed pins the lost-push fix. Two pushes race:
// the later one reaches the replica first and is refused as a gap, but the
// replica reads the position it reports after the refusal, by when the
// earlier push has landed — so the 409 names exactly the seq the refused
// segment starts at. That answer must be re-shipped like any other gap, not
// logged as a refusal and left to anti-entropy. The stub stands in for the
// replica on the first push only, so the test has no race of its own.
func TestReplicateReshipWhenGapClosed(t *testing.T) {
	nw := testNetwork(t, 100, 9)
	var daemons []*replicaDaemon
	var pushes atomic.Int32
	stub := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != "/cluster/replicate" || pushes.Add(1) > 1 {
			return http.DefaultTransport.RoundTrip(r)
		}
		var req ReplicateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		body, err := json.Marshal(ReplicateResponse{
			Graph: req.Graph,
			Position: mutate.Position{
				BaseFP: req.Segment.BaseFP, Generation: req.Segment.Generation, Seq: req.Segment.From,
			},
			Self: daemons[1].node.Self(),
		})
		if err != nil {
			return nil, err
		}
		return &http.Response{
			StatusCode: http.StatusConflict,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(bytes.NewReader(body)),
			Request:    r,
		}, nil
	})
	daemons = newReplicaSet(t, nw, 2, Config{RequestTimeout: 5 * time.Second},
		func(string) *http.Client { return &http.Client{Transport: stub} })
	primary, replica := daemons[0], daemons[1]

	resp, _, bad := postMutate(t, primary.ts.URL, MutateRequest{
		Graph: "live", Ops: addVertexOps(nw, nw.Graph.N()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d (%s)", resp.StatusCode, bad.Error)
	}
	waitPosition(t, replica, primary.log.Position())
	if got := pushes.Load(); got != 2 {
		t.Fatalf("%d pushes reached the replica's address, want the refused one and its re-ship", got)
	}
}

// TestReplicateGapReship pins the push-race repair: a replica missing the
// shipped segment's prefix answers 409 with its position, and the pusher
// immediately re-ships from there — no waiting for anti-entropy.
func TestReplicateGapReship(t *testing.T) {
	nw := testNetwork(t, 100, 7)
	daemons := newReplicaSet(t, nw, 2, Config{RequestTimeout: 5 * time.Second}, nil)
	primary, replica := daemons[0], daemons[1]

	// Two batches go straight into the primary's log — journaled but never
	// shipped, as if the replica had missed the pushes.
	for b := 0; b < 2; b++ {
		if _, err := primary.log.Apply(addVertexOps(nw, nw.Graph.N()+b)); err != nil {
			t.Fatal(err)
		}
	}
	// The third arrives over HTTP: its ship starts at seq 2, the replica is
	// at 0, and the gap answer must trigger the re-ship of all three.
	resp, _, bad := postMutate(t, primary.ts.URL, MutateRequest{
		Graph: "live", Ops: addVertexOps(nw, nw.Graph.N()+2),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d (%s)", resp.StatusCode, bad.Error)
	}
	waitPosition(t, replica, primary.log.Position())
	if got := replica.log.Position().Seq; got != 3 {
		t.Fatalf("replica at seq %d after gap re-ship, want 3", got)
	}
	servesLog(t, primary)
}

// servesLog fails unless d's live slot serves its log's live graph — which
// holds with no publishing by hand, whichever path committed the batches.
func servesLog(t *testing.T, d *replicaDaemon) {
	t.Helper()
	if got, want := readyLiveOf(t, d).Fingerprint, fingerprintHex(d.log.Fingerprint()); got != want {
		t.Fatalf("%s serves live fp %s, its log is at %s", d.addr, got, want)
	}
}

// TestAntiEntropyPull pins the catch-all: a replica that missed every push
// learns the primary's position from gossip and pulls the missing journal
// segments in one synchronous round.
func TestAntiEntropyPull(t *testing.T) {
	nw := testNetwork(t, 100, 8)
	daemons := newReplicaSet(t, nw, 2, Config{RequestTimeout: 5 * time.Second}, nil)
	primary, replica := daemons[0], daemons[1]

	for b := 0; b < 4; b++ {
		if _, err := primary.log.Apply(addVertexOps(nw, nw.Graph.N()+b)); err != nil {
			t.Fatal(err)
		}
	}
	servesLog(t, primary)

	// Before the replica hears the primary's live position, a round finds no
	// one ahead and pulls nothing.
	if got := replica.srv.AntiEntropyRound(context.Background()); got != 0 {
		t.Fatalf("round with stale gossip pulled %d batches, want 0", got)
	}
	// One gossip exchange later, the round pulls everything.
	gossipOnce(t, replica, primary)
	if got := replica.srv.AntiEntropyRound(context.Background()); got != 4 {
		t.Fatalf("round pulled %d batches, want 4", got)
	}
	if got, want := replica.log.Position(), primary.log.Position(); got != want {
		t.Fatalf("replica at %+v after pull, want %+v", got, want)
	}
	st := replica.srv.Stats().Cluster.Replication
	if st.AntiEntropyPulled != 4 || st.AntiEntropyRounds != 2 {
		t.Fatalf("replication stats = %+v, want 4 pulled over 2 rounds", st)
	}
	if got, want := readyLiveOf(t, replica).Fingerprint, readyLiveOf(t, primary).Fingerprint; got != want {
		t.Fatalf("replica serves live fp %s, primary %s", got, want)
	}
}

// TestReplicationUnconfigured pins the endpoints' 404 contract on daemons
// without a replicated log.
func TestReplicationUnconfigured(t *testing.T) {
	srv := New(Config{RequestIDSalt: 1})
	srv.AddNetwork(DefaultGraph, testNetwork(t, 64, 3))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/cluster/replicate", "/cluster/segment"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without replication = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAntiEntropyPullBounded: a repair round run without a deadline of its
// own still ends. The target accepts the segment pull and never answers; the
// pull is bounded by RequestTimeout, the round returns having pulled nothing,
// and the silent target takes a failure strike.
func TestAntiEntropyPullBounded(t *testing.T) {
	const timeout = 200 * time.Millisecond
	nw := testNetwork(t, 100, 8)
	d := newReplicaSet(t, nw, 1, Config{RequestTimeout: timeout}, nil)[0]

	release := make(chan struct{})
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(target.Close)
	t.Cleanup(func() { close(release) }) // runs before target.Close
	self := d.node.Self()
	ahead := cluster.Peer{
		ID: strings.TrimPrefix(target.URL, "http://"), Shard: self.Shard, Fingerprint: self.Fingerprint,
		Replica: 1, Epoch: 5, Generation: d.log.Head().Generation, LiveFP: "00000000000000ff",
	}
	d.node.Members().Add(ahead)

	pulled := make(chan int, 1)
	go func() { pulled <- d.srv.AntiEntropyRound(context.Background()) }()
	select {
	case got := <-pulled:
		if got != 0 {
			t.Fatalf("round against a silent target pulled %d batches, want 0", got)
		}
	case <-time.After(3 * timeout):
		t.Fatalf("anti-entropy round still waiting on a silent target after %v", 3*timeout)
	}
	strikes := -1
	for _, ps := range d.node.Members().Snapshot() {
		if ps.Peer.ID == ahead.ID {
			strikes = ps.Strikes
		}
	}
	if strikes != 1 {
		t.Fatalf("silent target has %d strikes after one failed pull, want 1", strikes)
	}
}
