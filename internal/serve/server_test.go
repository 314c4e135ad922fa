package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/girg"
	"repro/internal/mutate"
	"repro/internal/route"
)

// Test protocols, registered once in the process-wide registry. Their
// behaviour is switched per test through package-level controls (the tests
// below do not run in parallel).

// gate is the channel the "test-gated" protocol blocks on: tests install a
// fresh channel, fire requests, then close it to release every in-flight
// episode at once.
var gate atomic.Pointer[chan struct{}]

// gatedProto blocks until the current gate releases, then reports a dead
// end — a definitive, breaker-healthy outcome that maps to HTTP 200.
type gatedProto struct{}

func (gatedProto) Name() string { return "test-gated" }
func (gatedProto) RouteInto(_ route.Graph, _ route.Objective, s int, _ *route.Scratch, out *route.Result) {
	if ch := gate.Load(); ch != nil {
		<-*ch
	}
	*out = route.Result{Success: false, Path: []int{s}, Unique: 1, Stuck: s, Failure: route.FailDeadEnd}
}

// slowMode makes "test-switchable" spin on adjacency queries until the
// engine's wall-time budget cuts it off (a FailDeadline, the transient
// class); with slowMode off it delegates to real greedy routing.
var slowMode atomic.Bool

type switchableProto struct{}

func (switchableProto) Name() string { return "test-switchable" }
func (switchableProto) RouteInto(g route.Graph, obj route.Objective, s int, sc *route.Scratch, out *route.Result) {
	if slowMode.Load() {
		for {
			// The engine enforces budgets at adjacency queries; keep
			// querying so the deadline cut can land.
			g.Neighbors(s)
			time.Sleep(200 * time.Microsecond)
		}
	}
	route.GreedyRouter{}.RouteInto(g, obj, s, sc, out)
}

var registerTestProtos sync.Once

func testNetwork(t testing.TB, n float64, seed uint64) *core.Network {
	t.Helper()
	registerTestProtos.Do(func() {
		route.Register(gatedProto{})
		route.Register(switchableProto{})
	})
	p := girg.DefaultParams(n)
	p.FixedN = true
	nw, err := core.NewGIRG(p, seed, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func postRoute(t *testing.T, url string, req RouteRequest) (*http.Response, RouteResponse, ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok RouteResponse
	var bad ErrorResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == StatusFor(route.FailDeadline) ||
		resp.StatusCode == StatusFor(route.FailCrashedTarget) {
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			t.Fatalf("decode %d response: %v", resp.StatusCode, err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&bad)
	}
	return resp, ok, bad
}

// TestRouteBasic routes a handful of pairs end to end through the HTTP
// surface and sanity-checks the response shape.
func TestRouteBasic(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 400, 11))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, ok, _ := postRoute(t, ts.URL, RouteRequest{S: 1, T: 200, IncludePath: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ok.Graph != DefaultGraph || ok.Protocol != "greedy" {
		t.Fatalf("resolved names = %q/%q", ok.Graph, ok.Protocol)
	}
	if ok.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", ok.Attempts)
	}
	if ok.Success && len(ok.Path) != ok.Moves+1 {
		t.Fatalf("path length %d inconsistent with %d moves", len(ok.Path), ok.Moves)
	}

	// Per-request fault plan: a crash model can make the endpoint
	// unreachable; whatever the outcome, the response must carry a valid
	// taxonomy class and a mapped status.
	resp2, ok2, _ := postRoute(t, ts.URL, RouteRequest{S: 1, T: 200, FaultSeed: 3,
		Faults: []faults.Spec{{Model: "edge-drop", Rate: 0.3}}})
	if resp2.StatusCode != http.StatusOK && resp2.StatusCode != StatusFor(route.FailDeadline) {
		t.Fatalf("faulty route status = %d", resp2.StatusCode)
	}
	if !ok2.Success && ok2.Failure == "" {
		t.Fatal("failed faulty route carries no failure class")
	}
}

// TestRouteValidation exercises the 4xx surface: bad body, unknown graph,
// unknown protocol, out-of-range vertices, unknown fault model.
func TestRouteValidation(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		req  RouteRequest
		want int
	}{
		{RouteRequest{Graph: "nope", S: 0, T: 1}, http.StatusNotFound},
		{RouteRequest{Protocol: "nope", S: 0, T: 1}, http.StatusNotFound},
		{RouteRequest{S: -1, T: 1}, http.StatusBadRequest},
		{RouteRequest{S: 0, T: 1 << 30}, http.StatusBadRequest},
		{RouteRequest{S: 0, T: 1, Faults: []faults.Spec{{Model: "nope", Rate: 0.1}}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, _, _ := postRoute(t, ts.URL, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status = %d, want %d", i, resp.StatusCode, c.want)
		}
	}

	resp, err := http.Get(ts.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /route = %d, want 405", resp.StatusCode)
	}
}

// TestOverloadShedding proves the admission control contract: a burst of
// K × (workers + queue) concurrent requests yields exactly workers+queue
// completed episodes and sheds the rest with 429 + Retry-After — zero
// hangs, zero dropped in-flight episodes.
func TestOverloadShedding(t *testing.T) {
	const workers, queue = 2, 2
	s := New(Config{Workers: workers, QueueDepth: queue, RequestTimeout: 30 * time.Second})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ch := make(chan struct{})
	gate.Store(&ch)
	defer gate.Store(nil)

	const burst = 5 * (workers + queue)
	type outcome struct {
		status int
		retry  string
	}
	outcomes := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(RouteRequest{Protocol: "test-gated", S: 0, T: 1})
			resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			outcomes <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}

	// Wait until the pool is saturated (workers in flight, queue full),
	// i.e. every admitted episode is blocked on the gate, then release.
	waitFor(t, func() bool { return s.pool.Shed() >= burst-(workers+queue) })
	waitFor(t, func() bool { return s.pool.InFlight() == workers })
	close(ch)
	wg.Wait()
	close(outcomes)

	served, shed := 0, 0
	for o := range outcomes {
		switch o.status {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
			if o.retry == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", o.status)
		}
	}
	if served != workers+queue {
		t.Errorf("served = %d, want %d (every admitted episode must complete)", served, workers+queue)
	}
	if shed != burst-(workers+queue) {
		t.Errorf("shed = %d, want %d", shed, burst-(workers+queue))
	}
}

// TestBreakerOverHTTP drives the breaker through its full arc via the HTTP
// surface: deadline failures open it (503 + Retry-After), the open interval
// elapses, a half-open probe succeeds, and the pair serves 200s again.
func TestBreakerOverHTTP(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := New(Config{
		Workers:        2,
		RequestTimeout: 50 * time.Millisecond,
		Retry:          RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Breaker: BreakerConfig{
			Window: 4, FailureThreshold: 0.5, MinSamples: 2,
			OpenFor: time.Minute, HalfOpenProbes: 1, Now: clk.Now,
		},
	})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slowMode.Store(true)
	defer slowMode.Store(false)

	// Two deadline-cut requests reach MinSamples at failure rate 1: open.
	for i := 0; i < 2; i++ {
		resp, ok, _ := postRoute(t, ts.URL, RouteRequest{Protocol: "test-switchable", S: 0, T: 1})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("slow request %d: status = %d, want 504", i, resp.StatusCode)
		}
		if ok.Failure != string(route.FailDeadline) {
			t.Fatalf("slow request %d: failure = %q, want deadline", i, ok.Failure)
		}
	}
	if got := s.routeBreakers.get(DefaultGraph, "test-switchable").State(); got != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}

	// While open: fast 503 with Retry-After, no engine work.
	body, _ := json.Marshal(RouteRequest{Protocol: "test-switchable", S: 0, T: 1})
	resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("open-breaker 503 without Retry-After")
	}

	// Heal the protocol, elapse the open interval: the next request is the
	// half-open probe, succeeds, and closes the breaker.
	slowMode.Store(false)
	clk.Advance(time.Minute)
	resp2, _, _ := postRoute(t, ts.URL, RouteRequest{Protocol: "test-switchable", S: 0, T: 1})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("probe status = %d, want 200", resp2.StatusCode)
	}
	if got := s.routeBreakers.get(DefaultGraph, "test-switchable").State(); got != BreakerClosed {
		t.Fatalf("breaker state after probe = %v, want closed", got)
	}
	resp3, _, _ := postRoute(t, ts.URL, RouteRequest{Protocol: "test-switchable", S: 0, T: 1})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", resp3.StatusCode)
	}
}

// TestFaultProbesSkipBreaker sends chaos probes whose own crash-core plan
// crashes their source: each answers crashed-target on its first attempt
// (the crash set ignores the retry salt), none of them counts against the
// (graph, protocol) breaker, and fault-free traffic keeps being served.
func TestFaultProbesSkipBreaker(t *testing.T) {
	nw := testNetwork(t, 2000, 1)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s.AddNetwork("", nw)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	heaviest := 0
	for v := range nw.Graph.N() {
		if nw.Graph.Weight(v) > nw.Graph.Weight(heaviest) {
			heaviest = v
		}
	}
	probe := RouteRequest{S: heaviest, T: (heaviest + 1) % nw.Graph.N(),
		Faults: []faults.Spec{{Model: "crash-core", Rate: 0.1}}}
	for i := 0; i < 100; i++ {
		resp, ok, bad := postRoute(t, ts.URL, probe)
		if resp.StatusCode != StatusFor(route.FailCrashedTarget) || ok.Failure != string(route.FailCrashedTarget) {
			t.Fatalf("probe %d: status %d, failure %q, error %q; want crashed-target", i, resp.StatusCode, ok.Failure, bad.Error)
		}
		if ok.Attempts != 1 {
			t.Fatalf("probe %d: %d attempts, want 1 (crash-core crashes the same vertices under every seed)", i, ok.Attempts)
		}
	}
	if got := s.routeBreakers.get(DefaultGraph, "greedy").State(); got != BreakerClosed {
		t.Fatalf("breaker state after fault probes = %v, want closed", got)
	}
	probe.Faults = nil
	if resp, _, bad := postRoute(t, ts.URL, probe); resp.StatusCode != http.StatusOK {
		t.Fatalf("fault-free request after the probes: status %d (%s), want 200", resp.StatusCode, bad.Error)
	}
}

// TestRetryTransient verifies the retry loop consumes its attempt budget on
// a persistently slow protocol: MaxAttempts engine episodes, one response.
func TestRetryTransient(t *testing.T) {
	s := New(Config{
		Workers:        2,
		RequestTimeout: 400 * time.Millisecond,
		MaxHops:        -1,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slowMode.Store(true)
	defer slowMode.Store(false)
	// The per-attempt wall budget is the request's remaining time, so give
	// each attempt room by using MaxHops instead: with unlimited hops the
	// deadline budget is the only cut. 400ms budget / spinning protocol →
	// attempt 1 consumes nearly everything; attempts 2..3 get the rest.
	resp, ok, _ := postRoute(t, ts.URL, RouteRequest{Protocol: "test-switchable", S: 0, T: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if ok.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (transient deadline must be retried)", ok.Attempts)
	}
	if ok.Failure != string(route.FailDeadline) {
		t.Fatalf("failure = %q, want deadline", ok.Failure)
	}
}

// TestDrain proves graceful shutdown: with episodes in flight, Drain flips
// readiness to 503 and rejects new work, but blocks until every in-flight
// episode has written its response.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 4, RequestTimeout: 30 * time.Second})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ch := make(chan struct{})
	gate.Store(&ch)
	defer gate.Store(nil)

	const inFlight = 3
	statuses := make(chan int, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			body, _ := json.Marshal(RouteRequest{Protocol: "test-gated", S: 0, T: 1})
			resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.pool.InFlight() == inFlight })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, func() bool { return s.Draining() })

	// Draining: readiness off, new routes rejected up front.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp, _, _ := postRoute(t, ts.URL, RouteRequest{S: 0, T: 1}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new route while draining = %d, want 503", resp.StatusCode)
	}

	// Drain must not return while episodes are gated.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with %d episodes in flight", err, inFlight)
	case <-time.After(50 * time.Millisecond):
	}

	// Release: every in-flight episode completes with a real response, then
	// Drain returns.
	close(ch)
	for i := 0; i < inFlight; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("in-flight request %d: status = %d, want 200", i, st)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
}

// TestDrainTimeout verifies Drain honours its context when an episode never
// finishes.
func TestDrainTimeout(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 30 * time.Second})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ch := make(chan struct{})
	gate.Store(&ch)
	defer gate.Store(nil)

	done := make(chan struct{})
	go func() {
		body, _ := json.Marshal(RouteRequest{Protocol: "test-gated", S: 0, T: 1})
		resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	waitFor(t, func() bool { return s.pool.InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with an episode still gated")
	}
	close(ch) // release the episode so the server can shut down cleanly
	<-done
}

// TestHotSwap proves drop-free snapshot replacement: an in-flight episode
// keeps routing on the old snapshot while /admin/swap installs a new one,
// and subsequent requests route on the replacement.
func TestHotSwap(t *testing.T) {
	s := New(Config{Workers: 4, RequestTimeout: 30 * time.Second})
	s.AddNetwork("", testNetwork(t, 400, 11))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ch := make(chan struct{})
	gate.Store(&ch)
	defer gate.Store(nil)

	inFlight := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(RouteRequest{Protocol: "test-gated", S: 0, T: 1})
		resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
		if err != nil {
			inFlight <- -1
			return
		}
		resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.pool.InFlight() == 1 })

	// Swap in a smaller graph while the episode is gated.
	body, _ := json.Marshal(SwapRequest{N: 200, Seed: 7})
	resp, err := http.Post(ts.URL+"/admin/swap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sw SwapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sw.Vertices != 200 {
		t.Fatalf("swap: status %d, vertices %d", resp.StatusCode, sw.Vertices)
	}

	// The gated episode completes on the old snapshot.
	close(ch)
	if st := <-inFlight; st != http.StatusOK {
		t.Fatalf("in-flight during swap: status = %d, want 200", st)
	}

	// New requests see the new snapshot: vertex 350 existed only in the old
	// 400-vertex graph.
	r2, _, _ := postRoute(t, ts.URL, RouteRequest{S: 0, T: 350})
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("route to old-graph vertex = %d, want 400 (out of range on new snapshot)", r2.StatusCode)
	}
	r3, _, _ := postRoute(t, ts.URL, RouteRequest{S: 0, T: 150})
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("route on new snapshot = %d, want 200", r3.StatusCode)
	}
}

// TestHealthAndVars covers the observability endpoints.
func TestHealthAndVars(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d", got)
	}
	// Graphless server: alive but not ready.
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("graphless /readyz = %d, want 503", got)
	}
	s.AddNetwork("", testNetwork(t, 300, 5))
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", got)
	}

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"smallworld.engine", "smallworld.serve"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	var st ServeStats
	if err := json.Unmarshal(vars["smallworld.serve"], &st); err != nil {
		t.Fatalf("decode smallworld.serve: %v", err)
	}
	if len(st.Graphs) != 1 || st.Graphs[0] != DefaultGraph {
		t.Errorf("serve stats graphs = %v", st.Graphs)
	}
}

// TestStatsBreakerExport verifies breaker states appear in the expvar
// snapshot keyed by graph/protocol.
func TestStatsBreakerExport(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 300, 5))
	b := s.routeBreakers.get(DefaultGraph, "greedy")
	if _, err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	st := s.Stats()
	got, ok := st.Breakers["default/greedy"]
	if !ok {
		t.Fatalf("breaker key missing from stats: %v", st.Breakers)
	}
	if got != fmt.Sprintf("%s (opens=0)", BreakerClosed) {
		t.Fatalf("breaker export = %q", got)
	}
}

// TestRequestBodyLimits: each POST body — the client endpoints' and the peer
// endpoints' — is bounded before it is decoded. One byte past the bound
// answers 413; the same shape within it is decoded and judged on its content
// (no such graph, nothing to swap in, or an empty gossip push).
func TestRequestBodyLimits(t *testing.T) {
	_, _, ts := liveServer(t, 300, 5, mutate.Config{})
	peer := newReplicaSet(t, testNetwork(t, 100, 8), 1, Config{}, nil)[0].ts.URL
	for _, c := range []struct {
		url, path string
		limit     int
		within    int // the status of a body exactly at the limit
	}{
		{ts.URL, "/route", maxRouteBody, http.StatusNotFound},
		{ts.URL, "/admin/swap", maxRouteBody, http.StatusBadRequest},
		{ts.URL, "/route/batch", maxRouteBody + maxBatch*maxBatchItemBody, http.StatusNotFound},
		{ts.URL, "/admin/mutate", maxReplicateBody, http.StatusNotFound},
		{peer, "/cluster/hop", 64 << 10, http.StatusNotFound},
		{peer, "/cluster/gossip", 1 << 20, http.StatusOK},
		{peer, "/cluster/replicate", maxReplicateBody, http.StatusNotFound},
		{peer, "/cluster/segment", 1 << 20, http.StatusNotFound},
	} {
		const head, tail = `{"graph":"nope",`, `"items":[{"s":0,"t":1}]}`
		for _, over := range []int{0, 1} {
			pad := c.limit + over - len(head) - len(tail)
			body := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, int64(pad)), strings.NewReader(tail))
			resp, err := http.Post(c.url+c.path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := []int{c.within, http.StatusRequestEntityTooLarge}[over]; resp.StatusCode != want {
				t.Errorf("%s with a body of limit%+d bytes: status %d, want %d", c.path, over, resp.StatusCode, want)
			}
		}
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestDebugVarsPerServer: /debug/vars keeps expvar's key set and shape, but
// every value is the serving server's own — two servers in one process do
// not see each other's graphs or episodes.
func TestDebugVarsPerServer(t *testing.T) {
	busy, idle := New(Config{}), New(Config{})
	busy.AddNetwork("", testNetwork(t, 300, 5))
	idle.AddNetwork("other", testNetwork(t, 300, 6))
	busyTS, idleTS := httptest.NewServer(busy.Handler()), httptest.NewServer(idle.Handler())
	defer busyTS.Close()
	defer idleTS.Close()
	if resp, _, er := postRoute(t, busyTS.URL, RouteRequest{S: 3, T: 99}); resp.StatusCode != http.StatusOK {
		t.Fatalf("route: %d %s", resp.StatusCode, er.Error)
	}
	vars := func(url string) (core.EngineStats, ServeStats) {
		t.Helper()
		resp, err := http.Get(url + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"cmdline", "memstats", "smallworld.engine", "smallworld.serve"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("/debug/vars keys %v, want %v", keys, want)
		}
		var es core.EngineStats
		var ss ServeStats
		if err := json.Unmarshal(raw["smallworld.engine"], &es); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw["smallworld.serve"], &ss); err != nil {
			t.Fatal(err)
		}
		return es, ss
	}
	busyEng, busySrv := vars(busyTS.URL)
	idleEng, idleSrv := vars(idleTS.URL)
	if busyEng.Episodes != 1 || idleEng.Episodes != 0 {
		t.Fatalf("engine episodes busy=%d idle=%d, want 1 and 0", busyEng.Episodes, idleEng.Episodes)
	}
	if len(busyEng.FailureTaxonomy) != len(route.Failures()) {
		t.Fatalf("engine taxonomy %v lacks keys", busyEng.FailureTaxonomy)
	}
	if !reflect.DeepEqual(busySrv.Graphs, []string{DefaultGraph}) || !reflect.DeepEqual(idleSrv.Graphs, []string{"other"}) {
		t.Fatalf("serve graphs busy=%v idle=%v", busySrv.Graphs, idleSrv.Graphs)
	}
}
