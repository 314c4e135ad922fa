package serve

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/route"
)

// episodesOf sums smallworld_engine_episodes_total per instance label ("" for
// an unfederated exposition).
func episodesOf(fams []*obs.PromFamily) map[string]float64 {
	out := map[string]float64{}
	for _, f := range fams {
		if f.Name != "smallworld_engine_episodes_total" {
			continue
		}
		for _, s := range f.Samples {
			inst := ""
			for _, l := range s.Labels {
				if l.Name == "instance" {
					inst = l.Value
				}
			}
			out[inst] += s.Value
		}
	}
	return out
}

// TestFleetEpisodeCounts pins "exactly one episode recorded" across an
// in-process 3×2 fleet: each daemon's smallworld_engine_episodes_total is the
// attempts it ran as entry — sharded walks and local fault-injected ones
// alike, hop receivers counting nothing — and the federated /cluster/metrics
// sum is the fleet's total.
func TestFleetEpisodeCounts(t *testing.T) {
	nw := testNetwork(t, 600, 13)
	cfg := Config{
		RequestTimeout: 5 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 3},
	}
	daemons := newReplicatedCluster(t, nw, []replicaSpec{
		{"0", 0}, {"0", 1}, {"10", 0}, {"10", 1}, {"11", 0}, {"11", 1},
	}, cfg, cluster.Config{Seed: 4})

	want := map[string]float64{}
	total, forwarded, retried := 0.0, 0, 0
	n := nw.Graph.N()
	for i := 0; i < 60; i++ {
		s, tt := (i*7919)%n, (i*104729+13)%n
		if s == tt {
			continue
		}
		req := RouteRequest{S: s, T: tt}
		if i%4 == 0 {
			// Fault plans take the local engine path, and crashes retry.
			req.Faults = []faults.Spec{{Model: "crash-uniform", Rate: 0.2}}
		}
		entry := daemons[i%len(daemons)]
		status, got, er := clusterPost(t, entry.ts.URL, req)
		if status != http.StatusOK && status != http.StatusBadGateway {
			t.Fatalf("pair (%d,%d) via %s: status %d (%s)", s, tt, entry.addr, status, er.Error)
		}
		want[entry.addr] += float64(got.Attempts)
		total += float64(got.Attempts)
		if got.Forwards > 0 {
			forwarded++
		}
		if got.Attempts > 1 {
			retried++
		}
	}
	if forwarded == 0 || retried == 0 {
		t.Fatalf("forwarded %d, retried %d queries — the test exercised too little", forwarded, retried)
	}

	for _, d := range daemons {
		resp, err := http.Get(d.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := episodesOf(fams)[""]; got != want[d.addr] {
			t.Errorf("%s counts %v episodes, ran %v attempts as entry", d.addr, got, want[d.addr])
		}
	}
	fed := episodesOf(fetchFederated(t, daemons[0].ts.URL))
	sum := 0.0
	for _, d := range daemons {
		if _, ok := fed[d.addr]; !ok {
			t.Fatalf("federated scrape lacks %s (have %v)", d.addr, fed)
		}
		sum += fed[d.addr]
	}
	if sum != total {
		t.Fatalf("federated episodes sum to %v, the fleet ran %v attempts", sum, total)
	}
}

// mortonOwner returns the index of the daemon whose Morton share holds v.
func mortonOwner(t *testing.T, daemons []*shardDaemon, codes []uint64, bits, v int) int {
	t.Helper()
	for i, d := range daemons {
		if d.node.Shard().Matches(codes[v], bits) {
			return i
		}
	}
	t.Fatalf("no daemon's Morton share holds vertex %d", v)
	return -1
}

// TestCoreOnEveryShard pins the exact work split of the in-process 3×1 fleet
// over the cluster-hop fixture (n = 2 000, seed 11) on a fixed pair list,
// entries round-robin: the forwards, and the busiest shard's share of the
// degrees it scanned. A path's scanned vertices are all but a delivered
// walk's target; the entry scans s, and a later vertex belongs to the shard
// holding the walk there, which the test replays from the stitched path and
// checks against the response's forward count. Every shard routes the core
// locally, so the climb into the hubs never crosses. With Morton ownership
// alone the same list took 195 forwards and shard 11 scanned 0.5966 of the
// degrees ([66841 41360 160012]); the core on every shard takes it to 38
// forwards and 0.3693 (shard 0).
func TestCoreOnEveryShard(t *testing.T) {
	nw := testNetwork(t, 2000, 11)
	g := nw.Graph
	daemons := newTestCluster(t, nw, []string{"0", "10", "11"},
		Config{RequestTimeout: 5 * time.Second}, cluster.Config{Seed: 1})
	codes, bits, err := graph.MortonCodes(g)
	if err != nil {
		t.Fatal(err)
	}

	var sc route.Scratch
	var ref route.Result
	var scanned [3]int
	forwards := 0
	n := g.N()
	for i := 0; i < 256; i++ {
		s, tt := (i*7919)%n, (i*104729+13)%n
		if s == tt {
			continue
		}
		route.GreedyCSR(g, tt, s, route.Budget{}, &sc, &ref)
		e := i % len(daemons)
		status, got, er := clusterPost(t, daemons[e].ts.URL, RouteRequest{S: s, T: tt, IncludePath: true})
		if status != http.StatusOK {
			t.Fatalf("pair (%d,%d) via %s: status %d (%s)", s, tt, daemons[e].addr, status, er.Error)
		}
		if got.Success != ref.Success || got.Moves != ref.Moves || !reflect.DeepEqual(got.Path, ref.Path) {
			t.Fatalf("pair (%d,%d): cluster (success=%v moves=%d path %v) != single-node (success=%v moves=%d path %v)",
				s, tt, got.Success, got.Moves, got.Path, ref.Success, ref.Moves, ref.Path)
		}
		walk := got.Path
		if got.Success {
			walk = walk[:len(walk)-1]
		}
		cur, hops := e, 0
		for j, v := range walk {
			if j > 0 && !daemons[cur].node.Owned(v) {
				cur = mortonOwner(t, daemons, codes, bits, v)
				hops++
			}
			scanned[cur] += g.Degree(v)
		}
		if hops != got.Forwards {
			t.Fatalf("pair (%d,%d): the path changes shard %d times, the response counts %d forwards", s, tt, hops, got.Forwards)
		}
		forwards += hops
	}
	busiest, total := 0, 0
	for i, d := range scanned {
		total += d
		if d > scanned[busiest] {
			busiest = i
		}
	}
	if forwards != 38 {
		t.Errorf("%d forwards over the pair list, want 38", forwards)
	}
	if want := [3]int{99055, 80820, 88338}; scanned != want {
		t.Errorf("degrees scanned per shard %v (busiest share %.4f), want %v (shard 0's share 0.3693)",
			scanned, float64(scanned[busiest])/float64(total), want)
	}
}

// TestCoreSurvivesHubShard closes the daemon whose Morton share holds the
// heaviest vertex. A walk whose single-node path touches only core vertices
// and the survivors' shares never needs the dead daemon — the climb into
// the hubs stays on the entry shard — so every such pair is still delivered,
// the same path as single-node GreedyCSR.
func TestCoreSurvivesHubShard(t *testing.T) {
	nw := testNetwork(t, 2000, 11)
	g := nw.Graph
	daemons := newTestCluster(t, nw, []string{"0", "10", "11"},
		Config{RequestTimeout: 5 * time.Second}, cluster.Config{Seed: 1})
	codes, bits, err := graph.MortonCodes(g)
	if err != nil {
		t.Fatal(err)
	}
	core := graph.Core(g)
	inCore := make([]bool, g.N())
	for _, v := range core {
		inCore[v] = true
	}
	dead := mortonOwner(t, daemons, codes, bits, int(core[0]))
	daemons[dead].kill()
	var live []*shardDaemon
	for i, d := range daemons {
		if i != dead {
			live = append(live, d)
		}
	}

	var sc route.Scratch
	var ref route.Result
	routed, viaDeadHub := 0, 0
	n := g.N()
	for i := 0; i < 256; i++ {
		s, tt := (i*7919)%n, (i*104729+13)%n
		if s == tt {
			continue
		}
		route.GreedyCSR(g, tt, s, route.Budget{}, &sc, &ref)
		ok, hub := ref.Success, false
		for _, v := range ref.Path {
			if mortonOwner(t, daemons, codes, bits, v) == dead {
				ok = ok && inCore[v]
				hub = true
			}
		}
		if !ok {
			continue
		}
		entry := live[i%len(live)]
		status, got, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt, IncludePath: true})
		if status != http.StatusOK || !got.Success || !reflect.DeepEqual(got.Path, ref.Path) {
			t.Fatalf("pair (%d,%d) via %s with the hub's shard down: status %d (%s) failure %q path %v, want delivered along %v",
				s, tt, entry.addr, status, er.Error, got.Failure, got.Path, ref.Path)
		}
		routed++
		if hub {
			viaDeadHub++
		}
	}
	if viaDeadHub == 0 {
		t.Fatalf("none of %d routed pairs climbed through a hub of the dead shard — the test exercised nothing", routed)
	}
	t.Logf("%d pairs delivered with shard %s down, %d of them through its hubs", routed, daemons[dead].node.Shard(), viaDeadHub)
}
