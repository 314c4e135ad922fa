package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/route"
)

// parseExposition validates a Prometheus text exposition body: every sample
// belongs to a family declared by a preceding # TYPE line, the samples of a
// family are contiguous, and every value parses. It returns the per-family
// sample values in emission order.
func parseExposition(t *testing.T, body string) map[string][]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string][]float64{}
	var current string
	closed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, mtype := parts[2], parts[3]
			if _, dup := types[name]; dup {
				t.Fatalf("family %q declared twice", name)
			}
			types[name] = mtype
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			name = name[:i]
		}
		// Histogram series belong to their base family.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		if family != current {
			if closed[family] {
				t.Fatalf("family %q has non-contiguous samples (line %q)", family, line)
			}
			if current != "" {
				closed[current] = true
			}
			current = family
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[name] = append(samples[name], v)
	}
	return samples
}

// TestMetricsEndpoint scrapes /metrics after real traffic and validates the
// exposition: format validity, the required families, and the histogram
// invariants (cumulative buckets, +Inf bucket equal to the count).
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 400, 11))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, _, _ := postRoute(t, ts.URL, RouteRequest{S: i, T: 200 + i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, string(body))

	for _, name := range []string{
		"smallworld_engine_episodes_total",
		"smallworld_engine_moves_total",
		"smallworld_engine_episode_failures_total",
		"smallworld_engine_episode_duration_seconds_count",
		"smallworld_serve_admitted_total",
		"smallworld_serve_shed_total",
		"smallworld_serve_retries_total",
		"smallworld_serve_swaps_total",
		"smallworld_serve_quarantined_total",
		"smallworld_serve_inflight",
		"smallworld_serve_breaker_state",
		"smallworld_go_goroutines",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if v := samples["smallworld_serve_admitted_total"]; len(v) != 1 || v[0] < 3 {
		t.Errorf("admitted_total = %v, want >= 3", v)
	}
	// Engine counters are process-wide: at least this test's episodes.
	if v := samples["smallworld_engine_episodes_total"]; len(v) != 1 || v[0] < 3 {
		t.Errorf("episodes_total = %v, want >= 3", v)
	}
	// The routed (graph, protocol) pair has a breaker sample by now.
	if v := samples["smallworld_serve_breaker_state"]; len(v) < 1 || v[0] != 0 {
		t.Errorf("breaker_state = %v, want one closed (0) sample", v)
	}
	// Histogram: buckets must be cumulative and end at the total count.
	buckets := samples["smallworld_engine_episode_duration_seconds_bucket"]
	if len(buckets) != 22 {
		t.Fatalf("histogram has %d buckets, want 22", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("bucket %d not cumulative: %v", i, buckets)
		}
	}
	count := samples["smallworld_engine_episode_duration_seconds_count"][0]
	if buckets[len(buckets)-1] != count {
		t.Fatalf("+Inf bucket %v != count %v", buckets[len(buckets)-1], count)
	}

	// Non-GET is rejected.
	post, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

// TestMetricsConcurrentScrape hammers /metrics while routing traffic is in
// flight — the race detector turns any unsynchronized counter read into a
// failure.
func TestMetricsConcurrentScrape(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 8, Spans: obs.NewSpanLog(obs.SpanLogConfig{SampleRate: 0.5, Seed: 3})})
	s.AddNetwork("", testNetwork(t, 400, 11))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, _ := json.Marshal(RouteRequest{S: (r*10 + i) % 400, T: 200})
				resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(r)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %d: status %d", i, resp.StatusCode)
					return
				}
				parseExposition(t, string(body))
			}
		}()
	}
	wg.Wait()
}

// TestRequestIDPropagation is the tentpole's logging acceptance check: the
// X-Request-ID returned to the client must label the admission, retry and
// episode log lines of that request.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	logger, err := (&obs.LogConfig{Format: "json", Level: "debug"}).NewLogger(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:        2,
		RequestTimeout: 400 * time.Millisecond,
		MaxHops:        -1,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Logger:         logger,
		RequestIDSalt:  99,
	})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A persistently slow protocol forces the retry loop, so the log carries
	// admission, retries and the final episode line for one request id.
	slowMode.Store(true)
	defer slowMode.Store(false)
	body, _ := json.Marshal(RouteRequest{Protocol: "test-switchable", S: 0, T: 1})
	resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("route response carries no X-Request-ID")
	}

	byMsg := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q does not parse: %v", line, err)
		}
		if rec["request_id"] == rid {
			byMsg[rec["msg"].(string)]++
		}
	}
	for _, msg := range []string{"route admitted", "route retrying", "route episode"} {
		if byMsg[msg] == 0 {
			t.Errorf("no %q log line carries request_id %s (got %v)", msg, rid, byMsg)
		}
	}
}

// TestRequestLogPolicy pins what a request leaves in an Info-level log: a
// delivered first attempt writes no record; a budget cut (504) and a request
// that needed a retry each write one "route episode" record carrying the
// response's X-Request-ID. At Debug, the hop a peer serves for a forwarded
// walk is logged under the entry daemon's id, which rode the hop frame.
func TestRequestLogPolicy(t *testing.T) {
	var logBuf syncBuffer
	records := func() map[string][]string {
		byID := map[string][]string{}
		for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line %q does not parse: %v", line, err)
			}
			id, _ := rec["request_id"].(string)
			byID[id] = append(byID[id], rec["msg"].(string))
		}
		return byID
	}
	info, err := (&obs.LogConfig{Format: "json", Level: "info"}).NewLogger(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	nw := testNetwork(t, 400, 11)
	daemon := func(attempts int) string {
		s := New(Config{Logger: info, MaxHops: 2, RequestIDSalt: uint64(attempts),
			Retry: RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}})
		s.AddNetwork("", nw)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	once, twice := daemon(1), daemon(2)
	for _, c := range []struct {
		name     string
		url      string
		req      RouteRequest
		status   int
		attempts int
		want     []string
	}{
		{"delivered first attempt", once, RouteRequest{S: 1, T: 200}, http.StatusOK, 1, nil},
		{"budget cut", once, RouteRequest{S: 12, T: 99}, http.StatusGatewayTimeout, 1, []string{"route episode"}},
		// Fault seed 6 crashes the target on the first attempt only.
		{"delivered on retry", twice, RouteRequest{S: 1, T: 200, FaultSeed: 6,
			Faults: []faults.Spec{{Model: "crash-uniform", Rate: 0.5}}},
			http.StatusOK, 2, []string{"route retrying", "route episode"}},
	} {
		resp, got, _ := postRoute(t, c.url, c.req)
		if resp.StatusCode != c.status || got.Attempts != c.attempts {
			t.Fatalf("%s: status %d after %d attempts, want %d after %d", c.name,
				resp.StatusCode, got.Attempts, c.status, c.attempts)
		}
		rid := resp.Header.Get("X-Request-ID")
		if msgs := records()[rid]; !reflect.DeepEqual(msgs, c.want) {
			t.Errorf("%s: records under request_id %s = %q, want %q", c.name, rid, msgs, c.want)
		}
	}
	if untagged := records()[""]; len(untagged) > 0 {
		t.Errorf("records without a request_id: %q", untagged)
	}

	debug, err := (&obs.LogConfig{Format: "json", Level: "debug"}).NewLogger(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestCluster(t, nw, []string{"0", "10", "11"}, Config{Logger: debug}, cluster.Config{Seed: 1})
	n := nw.Graph.N()
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("no pair crossed a shard boundary")
		}
		entry := fleet[i%len(fleet)]
		resp, got, _ := postRoute(t, entry.ts.URL, RouteRequest{S: (i * 7919) % n, T: (i*104729 + 13) % n})
		if got.Forwards == 0 {
			continue
		}
		// A walk's first exit lies outside the entry's shard: a peer served it.
		rid := resp.Header.Get("X-Request-ID")
		served := 0
		for _, msg := range records()[rid] {
			if msg == "hop served" {
				served++
			}
		}
		if served == 0 {
			t.Errorf("pair %d via %s: %d forwards, but no \"hop served\" record carries request_id %s",
				i, entry.addr, got.Forwards, rid)
		}
		break
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing handler logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceEndpoint routes one sampled request and reads /debug/trace the
// way tracestitch does: every line is a phase span with trace and span ids,
// the request root names the X-Request-ID, and its local_route span carries
// the walk hop for hop — route.Moves of the response path, bit for bit.
func TestTraceEndpoint(t *testing.T) {
	nw := testNetwork(t, 400, 11)
	s := New(Config{RequestIDSalt: 7, Spans: obs.NewSpanLog(obs.SpanLogConfig{Seed: 42, SampleRate: 1})})
	s.AddNetwork("", nw)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post, rr, er := postRoute(t, ts.URL, RouteRequest{S: 1, T: 200, IncludePath: true})
	if post.StatusCode != http.StatusOK || !rr.Success {
		t.Fatalf("route: status %d, success %v (%s)", post.StatusCode, rr.Success, er.Error)
	}
	rid := post.Header.Get("X-Request-ID")

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var spans []obs.PhaseSpan
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp obs.PhaseSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Trace == "" || sp.ID == "" {
			t.Fatalf("line is not a phase span (%v): %s", err, sc.Text())
		}
		spans = append(spans, sp)
	}
	var root *obs.PhaseSpan
	for i := range spans {
		if spans[i].Kind == obs.SpanRequest && spans[i].Detail == rid {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no request span carries request id %s (%d spans held)", rid, len(spans))
	}
	var hops []obs.Span
	for _, sp := range spans {
		if sp.Kind == obs.SpanLocalRoute && sp.Parent == root.ID {
			hops = sp.Hops
		}
	}
	want := route.Moves(nw.Graph, route.NewStandard(nw.Graph, 200), route.Result{Path: rr.Path}, 0)
	if len(hops) != len(want) {
		t.Fatalf("local_route carries %d hops, the response path %d", len(hops), len(want))
	}
	for i, h := range hops {
		w := want[i]
		if h.Step != w.Step || h.V != w.V ||
			math.Float64bits(h.W) != math.Float64bits(w.W) || math.Float64bits(h.Score) != math.Float64bits(w.Score) {
			t.Fatalf("hop %d = %+v, route.Moves says %+v", i, h, w)
		}
	}
}

// TestTraceEndpointDisabled checks the untraced daemon answers 404 with a
// hint, not a panic or an empty 200.
func TestTraceEndpointDisabled(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace without spans = %d, want 404", resp.StatusCode)
	}
}

// TestPprofEndpoints checks the profiling surface is mounted on the handler.
func TestPprofEndpoints(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("goroutine profile status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine profile") {
		t.Fatalf("unexpected profile body: %.120s", body)
	}
	index, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	index.Body.Close()
	if index.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", index.StatusCode)
	}
}

// TestRequestIDOnEveryResponse checks the middleware stamps all endpoints,
// not just /route.
func TestRequestIDOnEveryResponse(t *testing.T) {
	s := New(Config{RequestIDSalt: 5})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	seen := map[string]bool{}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Errorf("%s: no X-Request-ID", path)
		}
		if seen[id] {
			t.Errorf("%s: duplicate request id %s", path, id)
		}
		seen[id] = true
	}
}

// TestMetricsFamiliesDeclaredOnce scrapes a daemon with every optional
// subsystem on — cluster, replicated mutation log, span log — and requires
// each family's # TYPE line exactly once: Prometheus rejects a second one.
func TestMetricsFamiliesDeclaredOnce(t *testing.T) {
	spans := obs.NewSpanLog(obs.SpanLogConfig{Service: "d0", Seed: 1, SampleRate: 1})
	d := newReplicaSet(t, testNetwork(t, 300, 5), 1, Config{Spans: spans}, nil)[0]
	if r, _, er := postRoute(t, d.ts.URL, RouteRequest{S: 1, T: 42}); r.StatusCode != http.StatusOK {
		t.Fatalf("route: status %d (%s)", r.StatusCode, er.Error)
	}
	var buf bytes.Buffer
	if err := d.srv.writeMetricsTo(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			seen[f[2]]++
		}
	}
	for _, want := range []string{"smallworld_cluster_forwards_total", "smallworld_serve_mutations_total", "smallworld_trace_spans_dropped_total"} {
		if seen[want] == 0 {
			t.Errorf("exposition lacks %s: a subsystem is off", want)
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("# TYPE %s appears %d times", name, n)
		}
	}
}

// TestBreakerLabelVerbatim swaps in a graph whose name holds a tab — names
// arrive unvalidated from /admin/swap bodies — and requires its breaker
// label to survive /metrics and ParseExposition byte for byte.
func TestBreakerLabelVerbatim(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const name = "a\tb"
	if r, _, er := postSwap(t, ts.URL, SwapRequest{Graph: name, N: 300, Seed: 3}); r.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d (%s)", r.StatusCode, er.Error)
	}
	if r, _, er := postRoute(t, ts.URL, RouteRequest{Graph: name, S: 1, T: 42}); r.StatusCode != http.StatusOK {
		t.Fatalf("route: status %d (%s)", r.StatusCode, er.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name != "smallworld_serve_breaker_state" {
			continue
		}
		for _, smp := range f.Samples {
			if smp.Labels[0].Value == name {
				return
			}
		}
		t.Fatalf("no breaker sample labelled graph=%q: %+v", name, f.Samples)
	}
	t.Fatal("no smallworld_serve_breaker_state family")
}
