package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/mutate"
	"repro/internal/obs"
)

// fetchFederated scrapes one daemon's /cluster/metrics and parses the
// merged exposition.
func fetchFederated(t *testing.T, url string) []*obs.PromFamily {
	t.Helper()
	resp, err := http.Get(url + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	return fams
}

// instancesOf collects the distinct instance label values of one family.
func instancesOf(fams []*obs.PromFamily, name string) map[string]bool {
	out := map[string]bool{}
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name == "instance" {
					out[l.Value] = true
				}
			}
		}
	}
	return out
}

// TestFederatedMetrics pins the federation contract: one scrape of any
// daemon's /cluster/metrics yields a parseable exposition whose samples are
// instance-labeled with every member of the replica set, including the
// per-replica lag gauges derived from gossiped live positions.
func TestFederatedMetrics(t *testing.T) {
	nw := testNetwork(t, 400, 7)
	daemons := newReplicaSet(t, nw, 3, Config{RequestTimeout: 3 * time.Second}, nil)

	fams := fetchFederated(t, daemons[0].ts.URL)
	insts := instancesOf(fams, "smallworld_serve_graphs")
	if len(insts) != 3 {
		t.Fatalf("smallworld_serve_graphs carries %d instances (%v), want all 3 daemons", len(insts), insts)
	}
	for _, d := range daemons {
		if !insts[d.addr] {
			t.Fatalf("instance %s missing from federated scrape (have %v)", d.addr, insts)
		}
	}
	// Membership was seeded with each peer's live position, so the
	// replica-lag gauges must name both other replicas.
	lagged := map[string]bool{}
	for _, f := range fams {
		if f.Name != "smallworld_replication_replica_epoch" {
			continue
		}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name == "peer" {
					lagged[l.Value] = true
				}
			}
		}
	}
	if len(lagged) < 2 {
		t.Fatalf("replica_epoch gauges name %d peers (%v), want the 2 other replicas", len(lagged), lagged)
	}

	// The failure counter stays 0 when everyone answered.
	for _, f := range fams {
		if f.Name == "smallworld_federation_scrape_failures_total" {
			for _, s := range f.Samples {
				if s.Value != 0 {
					t.Fatalf("federation scrape failures %v on a healthy cluster", s.Value)
				}
			}
		}
	}
}

// TestFederatedMetricsDegraded pins per-instance degradation: with one
// replica dead, the federated scrape still answers 200 with the survivors,
// and the failure counter records the missing peer.
func TestFederatedMetricsDegraded(t *testing.T) {
	nw := testNetwork(t, 400, 7)
	daemons := newReplicaSet(t, nw, 3, Config{RequestTimeout: time.Second}, nil)
	daemons[2].ts.Close()

	fams := fetchFederated(t, daemons[0].ts.URL)
	insts := instancesOf(fams, "smallworld_serve_graphs")
	if !insts[daemons[0].addr] || !insts[daemons[1].addr] {
		t.Fatalf("surviving instances missing from degraded scrape: %v", insts)
	}
	if insts[daemons[2].addr] {
		t.Fatalf("dead instance %s present in scrape", daemons[2].addr)
	}
	if got := daemons[0].srv.fedScrapeFails.Load(); got == 0 {
		t.Fatal("dead peer's scrape failure not counted")
	}
}

// TestReadyzReplicaLag pins the replication view of /readyz (and of
// /debug/vars, through the same accessors): the local live position and the
// per-replica lag learned from gossip.
func TestReadyzReplicaLag(t *testing.T) {
	nw := testNetwork(t, 400, 7)
	daemons := newReplicaSet(t, nw, 2, Config{RequestTimeout: 3 * time.Second}, nil)

	resp, err := http.Get(daemons[0].ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Cluster == nil {
		t.Fatal("readyz carries no cluster section")
	}
	if ready.Cluster.Live == nil {
		t.Fatal("readyz cluster section carries no live position despite a replicated log")
	}
	if len(ready.Cluster.ReplicaLag) != 1 {
		t.Fatalf("replica_lag has %d entries, want 1 (the other replica)", len(ready.Cluster.ReplicaLag))
	}
	lag := ready.Cluster.ReplicaLag[0]
	if lag.Peer != daemons[1].addr {
		t.Fatalf("replica_lag names %q, want %q", lag.Peer, daemons[1].addr)
	}
	if lag.State == "" {
		t.Fatal("replica_lag carries no failure-detector state")
	}
}

// TestFederatedMetricsConcurrent hammers /cluster/metrics while the cluster
// is busy: routes in flight, mutation batches committing on the primary,
// and hot swaps installing networks — the race detector (make check) is the
// real assertion; status-wise every scrape must answer 200.
func TestFederatedMetricsConcurrent(t *testing.T) {
	nw := testNetwork(t, 400, 7)
	daemons := newReplicaSet(t, nw, 2, Config{Workers: 4, RequestTimeout: 3 * time.Second}, nil)
	primary := daemons[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 16)

	// Scrapers: both daemons federate concurrently (each scrapes the other).
	for _, d := range daemons {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url + "/cluster/metrics")
				if err != nil {
					select {
					case fail <- fmt.Sprintf("scrape: %v", err):
					default:
					}
					return
				}
				if _, err := obs.ParseExposition(resp.Body); err != nil {
					select {
					case fail <- fmt.Sprintf("scrape parse: %v", err):
					default:
					}
				}
				resp.Body.Close()
			}
		}(d.ts.URL)
	}
	// Router: keeps the request path and its phase histograms hot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := nw.Graph.N()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body, _ := json.Marshal(RouteRequest{S: i % n, T: (i*31 + 7) % n})
			resp, err := http.Post(primary.ts.URL+"/route", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	// Mutator: journaled batches ship to the replica mid-scrape.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := nw.Graph.N()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body, _ := json.Marshal(MutateRequest{Graph: "live", Ops: addVertexOps(nw, next)})
			resp, err := http.Post(primary.ts.URL+"/admin/mutate", "application/json", bytes.NewReader(body))
			if err == nil {
				if resp.StatusCode == http.StatusOK {
					next++
				}
				resp.Body.Close()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Swapper: hot-installs the network into a side slot while scrapes walk
	// the graphs map.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			primary.srv.AddNetwork("scratch", nw)
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestReplicationStatsLag pins the /debug/vars surface: replication stats
// include the per-replica lag slice.
func TestReplicationStatsLag(t *testing.T) {
	nw := testNetwork(t, 400, 7)
	daemons := newReplicaSet(t, nw, 2, Config{RequestTimeout: 3 * time.Second}, nil)
	st := daemons[0].srv.Stats().Cluster
	if st == nil || st.Replication == nil {
		t.Fatal("no replication stats on a replicated daemon")
	}
	if len(st.Replication.ReplicaLag) != 1 {
		t.Fatalf("replication stats carry %d lag entries, want 1", len(st.Replication.ReplicaLag))
	}
	var pos mutate.Position
	if st.Replication.Position == pos && st.Replication.Position.Generation == 0 {
		t.Fatal("replication stats carry a zero position")
	}
}
