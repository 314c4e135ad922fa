package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/torus"
)

// shardDaemon is one member of an httptest cluster: a Server with a shard
// map, its listener, and the address peers know it by.
type shardDaemon struct {
	srv  *Server
	ts   *httptest.Server
	node *cluster.Node
	addr string
}

// kill takes the daemon down the way a dead process goes: the listener and
// every connection, hop streams included.
func (d *shardDaemon) kill() {
	d.ts.Close()
	d.srv.Close()
}

// newTestCluster spins up one httptest daemon per shard spec over a shared
// snapshot, with full static membership (no gossip loop — membership state
// is driven by forward successes/failures, deterministically).
func newTestCluster(t *testing.T, nw *core.Network, specs []string, cfg Config, mcfg cluster.Config) []*shardDaemon {
	t.Helper()
	daemons := make([]*shardDaemon, len(specs))
	for i, spec := range specs {
		p, err := torus.ParsePrefix(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.RequestIDSalt = uint64(i + 1)
		srv := New(c)
		srv.AddNetwork(DefaultGraph, nw)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(srv.Close) // httptest's Close does not see hijacked hop streams
		addr := strings.TrimPrefix(ts.URL, "http://")
		node, err := cluster.NewNode(nw.Graph, p, addr, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.EnableCluster(node, nil)
		daemons[i] = &shardDaemon{srv: srv, ts: ts, node: node, addr: addr}
	}
	for _, d := range daemons {
		for _, p := range daemons {
			if p != d {
				d.node.Members().Add(p.node.Self())
			}
		}
	}
	return daemons
}

// clusterPost is postRoute returning the bare status and decoding the body
// both ways regardless of status, which the chaos test needs (it meets
// breaker-open 503s and shard-unreachable 502s alike).
func clusterPost(t *testing.T, url string, req RouteRequest) (int, RouteResponse, ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /route: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var rr RouteResponse
	var er ErrorResponse
	_ = json.Unmarshal(buf.Bytes(), &rr)
	_ = json.Unmarshal(buf.Bytes(), &er)
	return resp.StatusCode, rr, er
}

// TestClusterEquivalence pins the tentpole invariant: a 3-shard cluster
// answers every query with the exact episode single-node GreedyCSR
// produces — same delivery, same moves, same path — no matter which shard
// the query enters at, with cross-shard walks visibly forwarded.
func TestClusterEquivalence(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	daemons := newTestCluster(t, nw, []string{"0", "10", "11"},
		Config{RequestTimeout: 5 * time.Second}, cluster.Config{Seed: 1})

	var sc route.Scratch
	var ref route.Result
	forwarded := 0
	n := nw.Graph.N()
	for i := 0; i < 60; i++ {
		s := (i * 7919) % n
		tt := (i*104729 + 13) % n
		if s == tt {
			continue
		}
		route.GreedyCSR(nw.Graph, tt, s, route.Budget{}, &sc, &ref)
		entry := daemons[i%len(daemons)]
		status, got, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt, IncludePath: true})
		if status != http.StatusOK {
			t.Fatalf("pair (%d,%d) via %s: status %d (%s)", s, tt, entry.addr, status, er.Error)
		}
		if got.Success != ref.Success || got.Moves != ref.Moves ||
			got.Unique != ref.Unique || got.Failure != string(ref.Failure) {
			t.Fatalf("pair (%d,%d) via %s: cluster (success=%v moves=%d unique=%d failure=%q) != single-node (success=%v moves=%d unique=%d failure=%q)",
				s, tt, entry.addr, got.Success, got.Moves, got.Unique, got.Failure,
				ref.Success, ref.Moves, ref.Unique, ref.Failure)
		}
		if !reflect.DeepEqual(got.Path, ref.Path) {
			t.Fatalf("pair (%d,%d): cluster path %v != single-node path %v", s, tt, got.Path, ref.Path)
		}
		if got.Forwards > 0 {
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Fatal("no query ever crossed a shard boundary — the test exercised nothing")
	}
}

// TestClusterChaos is the kill-one-shard drill: under concurrent load, one
// shard dies mid-flight. Every request must come back with a classified
// status within the request deadline — no hangs, no unclassified 500s —
// dead-shard routes must surface as shard-unreachable, and the victim's
// forward breakers on the survivors must open.
func TestClusterChaos(t *testing.T) {
	nw := testNetwork(t, 600, 7)
	const reqTimeout = 800 * time.Millisecond
	cfg := Config{
		Workers: 8, QueueDepth: 64,
		RequestTimeout: reqTimeout,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 9},
		Breaker:        BreakerConfig{Window: 8, FailureThreshold: 0.5, MinSamples: 2, OpenFor: 30 * time.Second, HalfOpenProbes: 1},
	}
	daemons := newTestCluster(t, nw, []string{"0", "10", "11"}, cfg,
		cluster.Config{Seed: 2, Strikes: 1000}) // strikes off: the breaker is under test

	victim := daemons[2]
	survivors := daemons[:2]
	n := nw.Graph.N()

	type outcome struct {
		status  int
		failure string
		errMsg  string
		elapsed time.Duration
	}
	var mu sync.Mutex
	var outcomes []outcome

	const workers = 3
	const perWorker = 40
	var wg sync.WaitGroup
	var killOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/3 {
					killOnce.Do(victim.kill) // the shard dies mid-load
				}
				s := (w*perWorker + i*7919) % n
				tt := (i*104729 + w + 1) % n
				if s == tt {
					tt = (tt + 1) % n
				}
				entry := survivors[(w+i)%len(survivors)]
				start := time.Now()
				status, rr, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt})
				mu.Lock()
				outcomes = append(outcomes, outcome{status, rr.Failure, er.Error, time.Since(start)})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	classified := map[int]bool{
		http.StatusOK: true, http.StatusBadGateway: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
		http.StatusTooManyRequests: true,
	}
	unreachable := 0
	for _, o := range outcomes {
		if !classified[o.status] {
			t.Errorf("unclassified status %d (failure=%q err=%q)", o.status, o.failure, o.errMsg)
		}
		if o.status != http.StatusOK && o.failure == "" && o.errMsg == "" {
			t.Errorf("status %d with neither failure class nor error message", o.status)
		}
		if o.elapsed > reqTimeout+2*time.Second {
			t.Errorf("request overran the deadline: %v (status %d)", o.elapsed, o.status)
		}
		if o.failure == string(route.FailShardUnreachable) {
			unreachable++
		}
	}
	if len(outcomes) != workers*perWorker {
		t.Fatalf("lost requests: %d outcomes of %d", len(outcomes), workers*perWorker)
	}
	if unreachable == 0 {
		t.Fatal("no request was classified shard-unreachable after the kill")
	}

	breakerOpen := false
	for _, d := range survivors {
		if d.srv.PeerBreaker(victim.addr, DefaultGraph).State() == BreakerOpen {
			breakerOpen = true
		}
	}
	if !breakerOpen {
		t.Fatal("no survivor opened its forward breaker for the dead shard")
	}
	for _, d := range survivors {
		if got := d.srv.Stats().Cluster.ShardUnreachable; got > 0 {
			return
		}
	}
	t.Fatal("no survivor counted a shard-unreachable episode")
}

// TestClusterEndpointsUnclustered pins the single-node behaviour of the
// cluster endpoints: 404, not a hang or a 500.
func TestClusterEndpointsUnclustered(t *testing.T) {
	srv := New(Config{RequestIDSalt: 1})
	srv.AddNetwork(DefaultGraph, testNetwork(t, 64, 3))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/cluster/hop", "/cluster/gossip"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on unclustered daemon = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRequestIDAdoption pins satellite 1: a sane incoming X-Request-ID is
// adopted (response echoes it), a hostile one is replaced with a minted id.
func TestRequestIDAdoption(t *testing.T) {
	srv := New(Config{RequestIDSalt: 1})
	srv.AddNetwork(DefaultGraph, testNetwork(t, 64, 3))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(id string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	if got := get("hop-abc.123"); got != "hop-abc.123" {
		t.Errorf("sane id not adopted: got %q", got)
	}
	if got := get("evil id;drop"); got == "evil id;drop" || got == "" {
		t.Errorf("hostile id adopted or dropped: %q", got)
	}
	if got := get(strings.Repeat("a", 65)); len(got) > 64 {
		t.Errorf("over-long id adopted: %q", got)
	}
	if got := get(""); got == "" {
		t.Error("no id minted when none presented")
	}
}

// TestReadyzFingerprint pins satellite 2: the ready body carries each
// snapshot's fingerprint and, when clustered, the shard and peer table.
func TestReadyzFingerprint(t *testing.T) {
	nw := testNetwork(t, 64, 5)
	daemons := newTestCluster(t, nw, []string{"0", "1"},
		Config{}, cluster.Config{Seed: 3})

	resp, err := http.Get(daemons[0].ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%016x", nw.Graph.Fingerprint())
	if g, ok := ready.Graphs[DefaultGraph]; !ok || g.Fingerprint != want {
		t.Fatalf("readyz fingerprint = %+v, want %s", ready.Graphs, want)
	}
	if ready.Cluster == nil || ready.Cluster.Shard != "0" {
		t.Fatalf("readyz cluster = %+v, want shard 0", ready.Cluster)
	}
	if len(ready.Cluster.Peers) != 1 || ready.Cluster.Peers[0].Peer.ID != daemons[1].addr {
		t.Fatalf("readyz peers = %+v, want [%s]", ready.Cluster.Peers, daemons[1].addr)
	}
}

// TestHopSnapshotMismatch pins the 409 guard: a hop against a graph that is
// not the clustered snapshot is refused, and the forwarding side classifies
// the episode instead of looping.
func TestHopSnapshotMismatch(t *testing.T) {
	nw := testNetwork(t, 64, 5)
	daemons := newTestCluster(t, nw, []string{"0", "1"},
		Config{}, cluster.Config{Seed: 4})

	// Install a different snapshot under another name on daemon 0 and hop
	// against it.
	other := testNetwork(t, 64, 6)
	daemons[0].srv.AddNetwork("other", other)
	body, _ := json.Marshal(HopRequest{Graph: "other", S: 0, T: 1})
	resp, err := http.Post(daemons[0].ts.URL+"/cluster/hop", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("hop against non-clustered snapshot = %d, want 409", resp.StatusCode)
	}
}
