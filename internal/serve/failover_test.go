package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/torus"
)

// replicaSpec places one test daemon: which shard it serves and as which
// replica.
type replicaSpec struct {
	shard   string
	replica int
}

// newReplicatedCluster is newTestCluster with replica placement: one daemon
// per spec, full static membership.
func newReplicatedCluster(t *testing.T, nw *core.Network, specs []replicaSpec, cfg Config, mcfg cluster.Config) []*shardDaemon {
	t.Helper()
	daemons := make([]*shardDaemon, len(specs))
	for i, spec := range specs {
		p, err := torus.ParsePrefix(spec.shard)
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
		mc := mcfg
		mc.Replica = spec.replica
		node, err := cluster.NewNode(nw.Graph, p, addr, mc)
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

// TestForwardFailover pins the replicated-shard failover: with shard 1's
// primary dead, every cross-shard query still answers bit-identically to
// single-node routing via the surviving replica — zero shard-unreachable —
// and the failovers counter records the reroutes.
func TestForwardFailover(t *testing.T) {
	nw := testNetwork(t, 600, 7)
	cfg := Config{
		Workers: 4, RequestTimeout: 3 * time.Second,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 9},
		Breaker: BreakerConfig{Window: 8, FailureThreshold: 0.5, MinSamples: 2, OpenFor: 30 * time.Second, HalfOpenProbes: 1},
	}
	daemons := newReplicatedCluster(t, nw,
		[]replicaSpec{{"0", 0}, {"1", 0}, {"1", 1}},
		cfg, cluster.Config{Seed: 2})
	entry := daemons[0]
	daemons[1].ts.Close() // shard 1 loses its first replica before any traffic

	var sc route.Scratch
	var ref route.Result
	n := nw.Graph.N()
	forwarded := 0
	for i := 0; i < 40; i++ {
		s := (i * 7919) % n
		tt := (i*104729 + 13) % n
		if s == tt {
			continue
		}
		route.GreedyCSR(nw.Graph, tt, s, route.Budget{}, &sc, &ref)
		status, got, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt})
		if status != http.StatusOK {
			t.Fatalf("pair (%d,%d): status %d (%s)", s, tt, status, er.Error)
		}
		if got.Success != ref.Success || got.Moves != ref.Moves || got.Failure != string(ref.Failure) {
			t.Fatalf("pair (%d,%d): failover result (success=%v moves=%d failure=%q) != single-node (success=%v moves=%d failure=%q)",
				s, tt, got.Success, got.Moves, got.Failure, ref.Success, ref.Moves, ref.Failure)
		}
		if got.Forwards > 0 {
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Fatal("no query crossed a shard boundary — the test exercised nothing")
	}
	st := entry.srv.Stats().Cluster
	if st.Failovers == 0 {
		t.Fatal("no forward failed over to the surviving replica")
	}
	if st.ShardUnreachable != 0 {
		t.Fatalf("%d episodes classified shard-unreachable despite a surviving replica", st.ShardUnreachable)
	}
}

// TestHedgedForward pins the hedging race with an injected timer: shard 1's
// first replica hangs (never answers, never errors), the hedge fires at the
// surviving replica and its answer wins — bit-identical to single-node — and
// every requested hedge delay is the policy's deterministic [After, 1.5*After)
// value.
func TestHedgedForward(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	const hedgeAfter = 10 * time.Millisecond
	cfg := Config{
		Workers: 4, RequestTimeout: 3 * time.Second,
		HedgeAfter: hedgeAfter,
		Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 5},
	}
	daemons := newReplicatedCluster(t, nw,
		[]replicaSpec{{"0", 0}, {"1", 1}},
		cfg, cluster.Config{Seed: 3})
	entry, survivor := daemons[0], daemons[1]

	// Shard 1's replica 0 is a tarpit: it accepts the hop and never answers,
	// until the winner's cancellation releases it. Slow, not dead — the
	// failure detector and breaker never see a failure from it.
	tarpit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read is armed and the
		// winner's cancellation actually fires this context.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer tarpit.Close()
	tarpitPeer := cluster.Peer{
		ID:          strings.TrimPrefix(tarpit.URL, "http://"),
		Shard:       "1",
		Fingerprint: entry.node.Self().Fingerprint,
		Replica:     0,
	}
	entry.node.Members().Add(tarpitPeer)
	survivor.node.Members().Add(tarpitPeer)

	// The injected hedge timer fires immediately and records every requested
	// delay, so the test is deterministic and still observes the policy.
	var mu sync.Mutex
	var delays []time.Duration
	entry.srv.hedgeTimer = func(d time.Duration) (<-chan time.Time, func()) {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch, func() {}
	}

	var sc route.Scratch
	var ref route.Result
	n := nw.Graph.N()
	hedged := 0
	for i := 0; i < 30 && hedged == 0; i++ {
		s := (i * 7919) % n
		tt := (i*104729 + 13) % n
		if s == tt {
			continue
		}
		route.GreedyCSR(nw.Graph, tt, s, route.Budget{}, &sc, &ref)
		status, got, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt})
		if status != http.StatusOK {
			t.Fatalf("pair (%d,%d): status %d (%s)", s, tt, status, er.Error)
		}
		if got.Success != ref.Success || got.Moves != ref.Moves {
			t.Fatalf("pair (%d,%d): hedged result diverged from single-node", s, tt)
		}
		if got.Hedges > 0 {
			hedged++
		}
	}
	if hedged == 0 {
		t.Fatal("no episode ever hedged — the tarpit replica was never first choice")
	}
	st := entry.srv.Stats().Cluster
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge counters: hedges=%d wins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}
	if st.ShardUnreachable != 0 {
		t.Fatalf("%d shard-unreachable episodes despite a winning hedge", st.ShardUnreachable)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delays) == 0 {
		t.Fatal("hedge timer never consulted")
	}
	for _, d := range delays {
		if d < hedgeAfter || d >= hedgeAfter+hedgeAfter/2 {
			t.Fatalf("hedge delay %v outside the deterministic [%v, %v) window",
				d, hedgeAfter, hedgeAfter+hedgeAfter/2)
		}
	}
}
