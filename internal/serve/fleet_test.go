package serve

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
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
