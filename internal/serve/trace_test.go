package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/torus"
)

// newTracedCluster is newReplicatedCluster with a per-daemon span log. The
// service names are the stable "d0", "d1", ... spellings — not the httptest
// addresses, whose random ports would defeat the bit-identical-ids assertion
// across runs — and every request is sampled.
func newTracedCluster(t *testing.T, nw *core.Network, specs []replicaSpec, cfg Config, mcfg cluster.Config) []*shardDaemon {
	t.Helper()
	daemons := make([]*shardDaemon, len(specs))
	for i, spec := range specs {
		p, err := torus.ParsePrefix(spec.shard)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.RequestIDSalt = uint64(i + 1)
		c.Spans = obs.NewSpanLog(obs.SpanLogConfig{
			Service:    fmt.Sprintf("d%d", i),
			Seed:       uint64(i + 1),
			SampleRate: 1,
		})
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

// stitchedTrace is the test-side reconstruction of one trace across daemons.
type stitchedTrace struct {
	spans    []obs.PhaseSpan
	roots    int
	rootKind string
	orphans  int
	services map[string]bool
}

// stitchSpans merges every daemon's span log and groups by trace id,
// verifying tree structure the way cmd/tracestitch's -check does.
func stitchSpans(daemons []*shardDaemon) map[string]*stitchedTrace {
	var all []obs.PhaseSpan
	for _, d := range daemons {
		all = append(all, d.srv.spans.Snapshot()...)
	}
	traces := map[string]*stitchedTrace{}
	byID := map[string]map[string]bool{}
	for _, sp := range all {
		tr := traces[sp.Trace]
		if tr == nil {
			tr = &stitchedTrace{services: map[string]bool{}}
			traces[sp.Trace] = tr
			byID[sp.Trace] = map[string]bool{}
		}
		tr.spans = append(tr.spans, sp)
		tr.services[sp.Service] = true
		byID[sp.Trace][sp.ID] = true
	}
	for id, tr := range traces {
		for _, sp := range tr.spans {
			switch {
			case sp.Parent == "":
				tr.roots++
				tr.rootKind = sp.Kind
			case !byID[id][sp.Parent]:
				tr.orphans++
			}
		}
	}
	return traces
}

// spanKey is the timing-free identity of one span, hops included — what must
// be bit-identical across reruns of the same workload.
func spanKey(sp obs.PhaseSpan) string {
	return fmt.Sprint(sp.Trace, "/", sp.ID, "/", sp.Parent, "/", sp.Service, "/", sp.Kind, "/", sp.Hops)
}

// tracedWorkload drives the deterministic query mix of the propagation test
// against a fresh traced cluster and returns the sorted span identity set
// plus the stitched traces.
func tracedWorkload(t *testing.T, seed uint64) ([]string, map[string]*stitchedTrace, int) {
	t.Helper()
	// The cluster-hop fixture: on it 5 of the 30 walks below cross a shard
	// boundary after their climb into the core (on n = 600 none does).
	nw := testNetwork(t, 2000, 11)
	daemons := newTracedCluster(t, nw, []replicaSpec{{"0", 0}, {"10", 0}, {"11", 0}},
		Config{RequestTimeout: 5 * time.Second}, cluster.Config{Seed: seed})

	n := nw.Graph.N()
	requests := 0
	forwarded := 0
	for i := 0; i < 30; i++ {
		s := (i * 7919) % n
		tt := (i*104729 + 13) % n
		if s == tt {
			continue
		}
		entry := daemons[i%len(daemons)]
		status, got, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt})
		if status != http.StatusOK {
			t.Fatalf("pair (%d,%d): status %d (%s)", s, tt, status, er.Error)
		}
		requests++
		if got.Forwards > 0 {
			forwarded++
		}
		if got.Timings == nil {
			t.Fatalf("pair (%d,%d): response carries no timings", s, tt)
		}
		if got.Timings.TotalUs < got.Timings.RouteUs {
			t.Fatalf("pair (%d,%d): total %dus < route %dus", s, tt, got.Timings.TotalUs, got.Timings.RouteUs)
		}
	}
	// One batch request: its items share the envelope's single trace.
	batch := BatchRouteRequest{Items: []BatchItem{{S: 1, T: 99}, {S: 2, T: 77}, {S: 3, T: 55}}}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(daemons[0].ts.URL+"/route/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchRouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	requests++
	for _, it := range br.Items {
		if it.Status == http.StatusOK && it.Timings == nil {
			t.Fatal("batch item carries no timings")
		}
	}
	if forwarded == 0 {
		t.Fatal("no query crossed a shard boundary — the test exercised nothing")
	}

	traces := stitchSpans(daemons)
	var keys []string
	for _, tr := range traces {
		for _, sp := range tr.spans {
			keys = append(keys, spanKey(sp))
		}
	}
	sort.Strings(keys)
	return keys, traces, requests
}

// TestClusterTracePropagation pins the tentpole invariant: every request
// through a 3-shard cluster yields exactly one connected span tree — one
// request-kind root, no orphans — with forwarded walks spanning multiple
// daemons, and rerunning the identical workload at a different GOMAXPROCS
// reproduces the identical trace and span ids.
func TestClusterTracePropagation(t *testing.T) {
	keys1, traces, requests := tracedWorkload(t, 4)

	if len(traces) != requests {
		t.Fatalf("%d traces for %d requests (sample rate 1)", len(traces), requests)
	}
	multi := 0
	for id, tr := range traces {
		if tr.roots != 1 {
			t.Fatalf("trace %s: %d roots, want exactly 1", id, tr.roots)
		}
		if tr.rootKind != obs.SpanRequest {
			t.Fatalf("trace %s: root kind %q, want %q", id, tr.rootKind, obs.SpanRequest)
		}
		if tr.orphans != 0 {
			t.Fatalf("trace %s: %d orphan spans", id, tr.orphans)
		}
		if len(tr.services) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no trace spans two daemons — Traceparent propagation is broken")
	}

	// Same workload, fresh cluster, restricted parallelism: the ids are pure
	// hashes of (seed, sequence, service), so the identity sets must match
	// bit for bit.
	old := runtime.GOMAXPROCS(1)
	keys2, _, _ := tracedWorkload(t, 4)
	runtime.GOMAXPROCS(old)
	if len(keys1) != len(keys2) {
		t.Fatalf("rerun produced %d spans, first run %d", len(keys2), len(keys1))
	}
	for i := range keys1 {
		if keys1[i] != keys2[i] {
			t.Fatalf("span identity diverged across reruns:\n  run1: %s\n  run2: %s", keys1[i], keys2[i])
		}
	}
}

// TestHedgedTraceConnected pins the orphan-prevention rule on the hedge
// path: when a hedged forward is cancelled because the other attempt won,
// the loser's forward_rpc span is still published (err "cancelled"), so a
// hop tree recorded by the losing peer keeps a recorded parent.
func TestHedgedTraceConnected(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	cfg := Config{
		Workers: 4, RequestTimeout: 3 * time.Second,
		HedgeAfter: 10 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 5},
	}
	daemons := newTracedCluster(t, nw,
		[]replicaSpec{{"0", 0}, {"1", 1}},
		cfg, cluster.Config{Seed: 3})
	entry, survivor := daemons[0], daemons[1]

	// Shard 1's replica 0 is a tarpit (accepts the hop, answers only when
	// cancelled), so every forward to shard 1 hedges onto the survivor.
	tarpit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	entry.srv.hedgeTimer = func(d time.Duration) (<-chan time.Time, func()) {
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch, func() {}
	}

	n := nw.Graph.N()
	hedged := 0
	for i := 0; i < 30 && hedged == 0; i++ {
		s := (i * 7919) % n
		tt := (i*104729 + 13) % n
		if s == tt {
			continue
		}
		status, got, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt})
		if status != http.StatusOK {
			t.Fatalf("pair (%d,%d): status %d (%s)", s, tt, status, er.Error)
		}
		if got.Hedges > 0 {
			hedged++
		}
	}
	if hedged == 0 {
		t.Fatal("no episode ever hedged")
	}

	traces := stitchSpans(daemons)
	sawHedge, sawCancelled := false, false
	for id, tr := range traces {
		if tr.roots != 1 || tr.orphans != 0 {
			t.Fatalf("trace %s: roots=%d orphans=%d, want 1/0", id, tr.roots, tr.orphans)
		}
		for _, sp := range tr.spans {
			if sp.Kind == obs.SpanHedgeWait {
				sawHedge = true
			}
			if sp.Kind == obs.SpanForwardRPC && sp.Err == "cancelled" {
				sawCancelled = true
			}
		}
	}
	if !sawHedge {
		t.Fatal("no hedge_wait span recorded")
	}
	if !sawCancelled {
		t.Fatal("no cancelled loser forward_rpc span recorded — hop trees on the losing peer would orphan")
	}
}

// TestDebugTraceServesSpans pins the /debug/trace contract: with a span log
// the endpoint answers 200 with one JSON line per span (a "trace" key), and
// the per-phase histograms appear on /metrics.
func TestDebugTraceServesSpans(t *testing.T) {
	nw := testNetwork(t, 300, 5)
	srv := New(Config{
		RequestTimeout: 2 * time.Second,
		Spans:          obs.NewSpanLog(obs.SpanLogConfig{Service: "solo", Seed: 7, SampleRate: 1}),
	})
	srv.AddNetwork(DefaultGraph, nw)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, _, er := postRoute(t, ts.URL, RouteRequest{S: 1, T: 42}); er.Error != "" {
		t.Fatalf("route failed: %s", er.Error)
	}
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d", resp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var sp obs.PhaseSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Trace == "" {
			t.Fatalf("non-span line on /debug/trace: %s", sc.Text())
		}
		lines++
	}
	if lines < 2 {
		t.Fatalf("%d span lines, want at least root + queue/route phases", lines)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`smallworld_request_phase_seconds_bucket{phase="queue_wait"`,
		`smallworld_request_phase_seconds_bucket{phase="local_route"`,
		"smallworld_trace_spans_published_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics is missing %q", want)
		}
	}
}

// TestSpanIDDeterminism pins the pure-hash id derivation itself under
// concurrency: hammering SpanID/DistTraceID from many goroutines yields the
// same values a serial loop computes.
func TestSpanIDDeterminism(t *testing.T) {
	const lanes = 8
	var wg sync.WaitGroup
	got := make([][]string, lanes)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ids := make([]string, 64)
			for i := range ids {
				trace := obs.DistTraceID(42, uint64(i))
				ids[i] = trace + ":" + obs.SpanID(trace, "svc", uint64(i%7))
			}
			got[l] = ids
		}(l)
	}
	wg.Wait()
	for l := 1; l < lanes; l++ {
		for i := range got[0] {
			if got[l][i] != got[0][i] {
				t.Fatalf("lane %d diverged at %d: %s != %s", l, i, got[l][i], got[0][i])
			}
		}
	}
}

// TestTraceHopsChain pins the trajectory across a hop chain: every daemon of
// a 3-shard cluster puts its own segment's hops on its own local_route span,
// and those spans, read in crossing order with each continuation's first
// vertex dropped (as mergeHop drops it), spell the response path. The order
// is the entry daemon's: its forward_rpc "hop depth=k" parents the receiver's
// hop root and so its segment, and a continuation back on the entry's own
// shard is its local_route "partial depth=k".
func TestTraceHopsChain(t *testing.T) {
	nw := testNetwork(t, 600, 1) // a graph with walks that cross two boundaries
	daemons := newTracedCluster(t, nw, []replicaSpec{{"0", 0}, {"10", 0}, {"11", 0}},
		Config{RequestTimeout: 5 * time.Second}, cluster.Config{Seed: 4})
	n := nw.Graph.N()
	checked, deepest := 0, 0
	for i := 0; i < 6*n && deepest < 2; i++ {
		s, tt := (i*7919)%n, (i*104729+13)%n
		if s == tt {
			continue
		}
		resp, rr, er := postRoute(t, daemons[i%len(daemons)].ts.URL, RouteRequest{S: s, T: tt, IncludePath: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pair (%d,%d): status %d (%s)", s, tt, resp.StatusCode, er.Error)
		}
		if rr.Forwards == 0 {
			continue
		}
		rid := resp.Header.Get("X-Request-ID")
		var trace *stitchedTrace
		for _, tr := range stitchSpans(daemons) {
			for _, sp := range tr.spans {
				if sp.Kind == obs.SpanRequest && sp.Detail == rid {
					trace = tr
				}
			}
		}
		if trace == nil {
			t.Fatalf("pair (%d,%d): no trace is rooted at request %s", s, tt, rid)
		}
		// The crossing index k of every forward_rpc, and of the hop root it
		// parents; a local_route span under neither is the entry's own.
		depthOf := map[string]int{}
		for _, sp := range trace.spans {
			if sp.Kind == obs.SpanForwardRPC {
				var k int
				if _, err := fmt.Sscanf(sp.Detail, "hop depth=%d", &k); err != nil {
					t.Fatalf("forward_rpc span detail %q: %v", sp.Detail, err)
				}
				depthOf[sp.ID] = k
			}
		}
		for _, sp := range trace.spans {
			if sp.Kind == obs.SpanHop {
				depthOf[sp.ID] = depthOf[sp.Parent]
			}
		}
		segments := map[int][]obs.Span{}
		for _, sp := range trace.spans {
			if sp.Kind != obs.SpanLocalRoute {
				continue
			}
			k := depthOf[sp.Parent]
			if sp.Detail != "partial" {
				if _, err := fmt.Sscanf(sp.Detail, "partial depth=%d", &k); err != nil {
					t.Fatalf("local_route span detail %q: %v", sp.Detail, err)
				}
			}
			segments[k] = sp.Hops
		}
		if len(segments) != rr.Forwards+1 {
			t.Fatalf("pair (%d,%d): %d local_route spans for %d forwards", s, tt, len(segments), rr.Forwards)
		}
		var path []int
		for k := 0; k < len(segments); k++ {
			hops := segments[k]
			if k > 0 {
				hops = hops[1:]
			}
			for _, h := range hops {
				path = append(path, h.V)
			}
		}
		if fmt.Sprint(path) != fmt.Sprint(rr.Path) {
			t.Fatalf("pair (%d,%d): stitched hops %v, response path %v", s, tt, path, rr.Path)
		}
		checked++
		deepest = max(deepest, rr.Forwards)
	}
	if deepest < 2 {
		t.Fatalf("%d forwarded queries, none crossed two boundaries — no chain was exercised", checked)
	}
}

// TestHopReceiversNeverForward pins that the entry daemon drives every hop,
// on TestTraceHopsChain's fleet. Pairs are walked until one crosses two
// boundaries (entry, a receiver, another receiver) and one re-enters the
// entry's shard. For each of them the stitched path is GreedyCSR's, no
// receiver forwards, and the entry's forward counter grows by the response's
// forwards less the re-entries, which continue on the entry without an RPC.
func TestHopReceiversNeverForward(t *testing.T) {
	nw := testNetwork(t, 600, 1)
	g := nw.Graph
	daemons := newTracedCluster(t, nw, []replicaSpec{{"0", 0}, {"10", 0}, {"11", 0}},
		Config{RequestTimeout: 5 * time.Second}, cluster.Config{Seed: 4})
	codes, bits, err := graph.MortonCodes(g)
	if err != nil {
		t.Fatal(err)
	}
	forwards := func() (f [3]int64) {
		for i, d := range daemons {
			f[i] = d.srv.Stats().Cluster.Forwards
		}
		return f
	}

	var ref route.Result
	n := g.N()
	chained, reentered := 0, 0
	for i := 0; i < n*n && (chained == 0 || reentered == 0); i++ {
		s, tt := (i*7919)%n, (i*104729+13+i/n)%n
		if s == tt {
			continue
		}
		// The single-node path's crossings, replayed from the entry: stepping
		// onto a delivered walk's target is delivery wherever it lives.
		route.GreedyCSR(g, tt, s, route.Budget{}, nil, &ref)
		e := i % len(daemons)
		walk := ref.Path
		if ref.Success {
			walk = walk[:len(walk)-1]
		}
		cur, crossings, reentries := e, 0, 0
		for j, v := range walk {
			if j > 0 && !daemons[cur].node.Owned(v) {
				cur = mortonOwner(t, daemons, codes, bits, v)
				crossings++
				if cur == e {
					reentries++
				}
			}
		}
		if crossings < 2 || (reentries > 0 && reentered > 0) || (reentries == 0 && chained > 0) {
			continue
		}

		before := forwards()
		status, got, er := clusterPost(t, daemons[e].ts.URL, RouteRequest{S: s, T: tt, IncludePath: true})
		after := forwards()
		if status != http.StatusOK || got.Success != ref.Success || !reflect.DeepEqual(got.Path, ref.Path) {
			t.Fatalf("pair (%d,%d) via d%d: status %d (%s) success %v path %v, single-node success %v path %v",
				s, tt, e, status, er.Error, got.Success, got.Path, ref.Success, ref.Path)
		}
		if got.Forwards != crossings {
			t.Fatalf("pair (%d,%d) via d%d: %d forwards, the path crosses %d times", s, tt, e, got.Forwards, crossings)
		}
		for d := range daemons {
			want := int64(0)
			if d == e {
				want = int64(crossings - reentries)
			}
			if grew := after[d] - before[d]; grew != want {
				t.Fatalf("pair (%d,%d) via d%d, %d crossings, %d re-entries: d%d made %d forwards, want %d",
					s, tt, e, crossings, reentries, d, grew, want)
			}
		}
		if reentries > 0 {
			reentered++
		} else {
			chained++
		}
	}
	if chained == 0 || reentered == 0 {
		t.Fatalf("%d two-crossing chains, %d re-entries: the test exercised too little", chained, reentered)
	}
}

// TestTraceHopsDeterminism routes one request sequence at sample rate 0.5 on
// a fresh daemon under GOMAXPROCS 1 and 8: the sampled requests, their trace
// and span ids and every hop must match, and each sampled request has its
// phase spans and its hops together.
func TestTraceHopsDeterminism(t *testing.T) {
	nw := testNetwork(t, 400, 11)
	run := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		srv := New(Config{RequestIDSalt: 3, Spans: obs.NewSpanLog(obs.SpanLogConfig{Service: "solo", Seed: 9, SampleRate: 0.5})})
		srv.AddNetwork(DefaultGraph, nw)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		const requests = 40
		for i := 0; i < requests; i++ {
			if r, _, er := postRoute(t, ts.URL, RouteRequest{S: i, T: 200 + i}); r.StatusCode != http.StatusOK {
				t.Fatalf("route %d: status %d (%s)", i, r.StatusCode, er.Error)
			}
		}
		spans := srv.spans.Snapshot()
		roots, routed := map[string]bool{}, map[string]bool{}
		var keys []string
		for _, sp := range spans {
			switch sp.Kind {
			case obs.SpanRequest:
				roots[sp.ID] = true
			case obs.SpanLocalRoute:
				if len(sp.Hops) == 0 {
					t.Fatalf("local_route span %s carries no hops", sp.ID)
				}
				routed[sp.Parent] = true
			}
			keys = append(keys, spanKey(sp))
		}
		if len(roots) == 0 || len(roots) == requests || len(routed) != len(roots) {
			t.Fatalf("%d of %d requests sampled, %d with hops", len(roots), requests, len(routed))
		}
		sort.Strings(keys)
		return keys
	}
	one, eight := run(1), run(8)
	if fmt.Sprint(one) != fmt.Sprint(eight) {
		t.Fatalf("traces differ across GOMAXPROCS:\n1: %v\n8: %v", one, eight)
	}
}

// TestTracedRouteBytesFlatInN: replaying a sampled request's hops onto its
// local_route span costs O(path), not O(n) — a traced /route allocates about
// the same bytes on a 20 000-vertex graph as on a 2 000-vertex one, where a
// per-request score cache would add 8 bytes per vertex (~144 KB).
func TestTracedRouteBytesFlatInN(t *testing.T) {
	perRequest := func(n float64) float64 {
		nw := testNetwork(t, n, 3)
		srv := New(Config{Spans: obs.NewSpanLog(obs.SpanLogConfig{Service: "solo", Seed: 1, SampleRate: 1})})
		srv.AddNetwork(DefaultGraph, nw)
		h := srv.Handler()
		giant := nw.Giant()
		post := func(i int) {
			s, tt := giant[(i*7919)%len(giant)], giant[(i*104729+13)%len(giant)]
			body := fmt.Sprintf(`{"s":%d,"t":%d}`, s, tt)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("route %s: status %d", body, rec.Code)
			}
		}
		for i := 0; i < 8; i++ {
			post(i)
		}
		// TotalAlloc is process-wide: the least of three rounds is the one
		// other goroutines disturbed least.
		const requests = 64
		least := math.Inf(1)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < requests; i++ {
				post(i)
			}
			runtime.ReadMemStats(&after)
			least = math.Min(least, float64(after.TotalAlloc-before.TotalAlloc)/requests)
		}
		if st := srv.spans.Stats(); st.Published == 0 {
			t.Fatal("no spans published — the requests were not traced")
		}
		return least
	}
	small, large := perRequest(2000), perRequest(20000)
	t.Logf("traced /route: %.0f B at n=2000, %.0f B at n=20000", small, large)
	if large-small > 4<<10 {
		t.Fatalf("a traced /route allocates %.0f B at n=2000 and %.0f B at n=20000: replay grows with n", small, large)
	}
}
