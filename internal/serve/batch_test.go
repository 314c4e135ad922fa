package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/route"
)

func postBatch(t *testing.T, url string, req BatchRouteRequest) (*http.Response, BatchRouteResponse, ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/route/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok BatchRouteResponse
	var bad ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&bad)
	}
	return resp, ok, bad
}

// TestBatchMixedOutcomes sends one batch whose items succeed, fail
// definitively, and fail validation — and checks each item carries the same
// status POST /route would have returned for it, while the envelope is 200.
func TestBatchMixedOutcomes(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 400, 11))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, ok, _ := postBatch(t, ts.URL, BatchRouteRequest{Items: []BatchItem{
		{S: 1, T: 200, IncludePath: true},    // routed, default protocol
		{Protocol: "test-gated", S: 0, T: 1}, // definitive dead end: 200, success=false
		{Protocol: "nope", S: 0, T: 1},       // unknown protocol: 404
		{S: 0, T: 1 << 30},                   // vertex out of range: 400
		{S: 3, T: 250},                       // routed again after rejected items
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status = %d, want 200", resp.StatusCode)
	}
	if ok.Graph != DefaultGraph || len(ok.Items) != 5 {
		t.Fatalf("envelope graph=%q items=%d", ok.Graph, len(ok.Items))
	}

	it := ok.Items[0]
	if it.Status != http.StatusOK || it.Protocol != "greedy" || it.Attempts != 1 {
		t.Fatalf("item 0 = %+v, want routed 200 via greedy", it)
	}
	if it.Success && len(it.Path) != it.Moves+1 {
		t.Fatalf("item 0 path length %d inconsistent with %d moves", len(it.Path), it.Moves)
	}
	if it := ok.Items[1]; it.Status != http.StatusOK || it.Success || it.Failure != string(route.FailDeadEnd) {
		t.Fatalf("item 1 = %+v, want definitive dead-end 200", it)
	}
	if it := ok.Items[2]; it.Status != http.StatusNotFound || it.Error == "" {
		t.Fatalf("item 2 = %+v, want 404 with message", it)
	}
	if it := ok.Items[3]; it.Status != http.StatusBadRequest || it.Error == "" {
		t.Fatalf("item 3 = %+v, want 400 with message", it)
	}
	if it := ok.Items[4]; it.Status != http.StatusOK || it.Error != "" {
		t.Fatalf("item 4 = %+v, want routed 200 after rejected items", it)
	}
	// Items echo their queries so results stay addressable by position.
	if ok.Items[3].S != 0 || ok.Items[3].T != 1<<30 {
		t.Fatalf("item 3 does not echo its query: %+v", ok.Items[3])
	}
}

// TestBatchResultsMatchSingleRoutes proves the batch path and the single
// path answer identical deterministic queries identically (they share
// routeOne, but this pins the wiring).
func TestBatchResultsMatchSingleRoutes(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 400, 11))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pairs := [][2]int{{1, 200}, {7, 333}, {50, 51}, {399, 0}}
	items := make([]BatchItem, len(pairs))
	for i, p := range pairs {
		items[i] = BatchItem{S: p[0], T: p[1], IncludePath: true}
	}
	_, batch, _ := postBatch(t, ts.URL, BatchRouteRequest{Items: items})
	if len(batch.Items) != len(pairs) {
		t.Fatalf("items = %d, want %d", len(batch.Items), len(pairs))
	}
	for i, p := range pairs {
		_, single, _ := postRoute(t, ts.URL, RouteRequest{S: p[0], T: p[1], IncludePath: true})
		b := batch.Items[i]
		if b.Success != single.Success || b.Failure != single.Failure ||
			b.Moves != single.Moves || b.Unique != single.Unique {
			t.Errorf("pair %v: batch %+v != single %+v", p, b, single)
		}
		if fmt.Sprint(b.Path) != fmt.Sprint(single.Path) {
			t.Errorf("pair %v: batch path %v != single path %v", p, b.Path, single.Path)
		}
	}
}

// TestBatchValidation exercises the envelope-level 4xx/413 surface.
func TestBatchValidation(t *testing.T) {
	s := New(Config{MaxBatch: 4})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty batch: 400.
	resp, _, bad := postBatch(t, ts.URL, BatchRouteRequest{})
	if resp.StatusCode != http.StatusBadRequest || bad.Error == "" {
		t.Fatalf("empty batch = %d %q, want 400", resp.StatusCode, bad.Error)
	}
	// Oversized batch: 413 before any routing.
	over := make([]BatchItem, 5)
	for i := range over {
		over[i] = BatchItem{S: 0, T: 1}
	}
	resp, _, bad = postBatch(t, ts.URL, BatchRouteRequest{Items: over})
	if resp.StatusCode != http.StatusRequestEntityTooLarge || bad.Error == "" {
		t.Fatalf("oversized batch = %d %q, want 413", resp.StatusCode, bad.Error)
	}
	// Unknown graph: 404 for the whole batch.
	resp, _, _ = postBatch(t, ts.URL, BatchRouteRequest{Graph: "nope", Items: []BatchItem{{S: 0, T: 1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph = %d, want 404", resp.StatusCode)
	}
	// GET: 405.
	get, err := http.Get(ts.URL + "/route/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /route/batch = %d, want 405", get.StatusCode)
	}
}

// TestBatchSharedDeadline proves the batch runs under ONE request deadline:
// when an early item burns the whole budget, the remaining items are cut
// immediately with per-item 504 deadline classes instead of each getting a
// fresh budget.
func TestBatchSharedDeadline(t *testing.T) {
	s := New(Config{
		Workers:        1,
		RequestTimeout: 300 * time.Millisecond,
		MaxHops:        -1,
		Retry:          RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slowMode.Store(true)
	defer slowMode.Store(false)

	resp, ok, _ := postBatch(t, ts.URL, BatchRouteRequest{Items: []BatchItem{
		{Protocol: "test-switchable", S: 0, T: 1}, // spins until the deadline cuts it
		{S: 0, T: 1}, // no budget left
		{S: 2, T: 3}, // no budget left
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status = %d, want 200", resp.StatusCode)
	}
	for i, it := range ok.Items {
		if it.Status != StatusFor(route.FailDeadline) || it.Failure != string(route.FailDeadline) {
			t.Errorf("item %d = status %d failure %q, want 504 deadline", i, it.Status, it.Failure)
		}
	}
	// The trailing items must be immediate cuts, not fresh budgets: the whole
	// batch stays within ~the request timeout.
	if ok.ElapsedMs > 2*300 {
		t.Errorf("batch elapsed %.1fms, want ≈ the 300ms shared deadline", ok.ElapsedMs)
	}
}

// TestBatchDrainRejected: a draining server rejects whole batches up front.
func TestBatchDrainRejected(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()

	resp, _, _ := postBatch(t, ts.URL, BatchRouteRequest{Items: []BatchItem{{S: 0, T: 1}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining = %d, want 503", resp.StatusCode)
	}
}

// TestBatchOneAdmissionSlot proves a whole batch occupies exactly one pool
// slot: with Workers=1 and QueueDepth=1, a gated batch plus one queued batch
// saturate the pool and a third is shed 429 — regardless of item counts.
func TestBatchOneAdmissionSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ch := make(chan struct{})
	gate.Store(&ch)
	defer gate.Store(nil)

	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Protocol: "test-gated", S: 0, T: 1}
	}
	statuses := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(BatchRouteRequest{Items: items})
			resp, err := http.Post(ts.URL+"/route/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	// One batch holds the worker (gated inside its first item), one waits.
	waitFor(t, func() bool { return s.pool.InFlight() == 1 && s.pool.Waiting() == 1 })

	resp, _, _ := postBatch(t, ts.URL, BatchRouteRequest{Items: items[:1]})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third batch = %d, want 429 (pool holds one slot per batch)", resp.StatusCode)
	}

	close(ch)
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Errorf("admitted batch status = %d, want 200", st)
		}
	}
}

// TestBatchHammerWithSwaps is the race test: concurrent batches (mixed valid
// and out-of-range items) against concurrent snapshot swaps. Run under
// -race; the invariants checked here are "every envelope decodes" and
// "every item status is from the known set" — no torn graphs, no panics.
func TestBatchHammerWithSwaps(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, RequestTimeout: 5 * time.Second})
	s.AddNetwork("", testNetwork(t, 300, 5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	valid := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true,
		http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true, http.StatusBadGateway: true,
	}
	var wg sync.WaitGroup
	const clients, rounds = 6, 5
	errs := make(chan string, clients*rounds+rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				items := []BatchItem{
					{S: (c * 7) % 250, T: (r*31 + 13) % 250, IncludePath: true},
					{S: 1, T: 299},     // valid on the 300-graph, out of range on the 200-swap
					{S: 0, T: 1 << 20}, // always out of range
				}
				body, _ := json.Marshal(BatchRouteRequest{Items: items})
				resp, err := http.Post(ts.URL+"/route/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					continue
				}
				if resp.StatusCode == http.StatusOK {
					var br BatchRouteResponse
					if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
						errs <- "decode: " + err.Error()
					} else {
						for i, it := range br.Items {
							if !valid[it.Status] {
								errs <- fmt.Sprintf("item %d: unexpected status %d", i, it.Status)
							}
						}
					}
				}
				resp.Body.Close()
			}
		}(c)
	}
	// Swap between two snapshot sizes while the batches fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			n := 200 + 100*(r%2)
			body, _ := json.Marshal(SwapRequest{N: float64(n), Seed: uint64(r + 1)})
			resp, err := http.Post(ts.URL+"/admin/swap", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- "swap: " + err.Error()
				continue
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// FuzzRouteBatch feeds raw bodies to POST /route/batch: the handler never
// panics, answers only 200, 400, 404 or 413, and a 200 carries one item per
// request item, each with a status and, unless it delivered, a reason.
func FuzzRouteBatch(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"items":[]}`,
		`{"items":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1}]}`,
		`{"graph":"nope","items":[{"s":0,"t":1}]}`,
		`{"items":[{"s":3,"t":99,"include_path":true},{"protocol":"phi-dfs","s":7,"t":42}]}`,
		`{"items":[{"s":-1,"t":1},{"s":0,"t":300},{"s":1,"t":1}]}`,
		`{"items":[{"protocol":"nope","s":0,"t":1},{"protocol":"greedy+lookahead","s":0,"t":1}]}`,
		`{"items":[{"s":0,"t":1,"faults":[{"model":"nope","rate":0.5}]}]}`,
		`{"items":[{"s":0,"t":1,"faults":[{"model":"edge-drop","rate":1.5}]},{"s":0,"t":1,"faults":[{"model":"edge-drop","rate":-1}]}]}`,
		`{"items":[{"s":0,"t":1,"faults":[{"model":"crash-uniform","rate":1}]}]}`,
		`{"items":[{"s":0,"t":1,"faults":[{"model":"msg-loss","rate":0.9,"retries":-1}]}]}`,
		`{"items":[{"s":0,"t":1,"faults":[{"model":"msg-loss","rate":0.9,"retries":9000000000000000000}]}]}`,
		`{"items":[{"s":0,"t":1,"faults":"edge-drop"}]}`,
		`{"items":[{"s":1e30,"t":1}]}`,
		`{"items":[{"s":0,"t":1}]`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{MaxBatch: 4, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s.AddNetwork("", testNetwork(f, 300, 5))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var req BatchRouteRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var resp BatchRouteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, rec.Body)
		}
		if len(resp.Items) != len(req.Items) {
			t.Fatalf("%d items answered for %d asked: %q", len(resp.Items), len(req.Items), body)
		}
		for i, it := range resp.Items {
			if it.Status == 0 {
				t.Fatalf("item %d has no status: %+v", i, it)
			}
			if !it.Success && it.Error == "" && it.Failure == "" {
				t.Fatalf("item %d failed without a reason: %+v", i, it)
			}
		}
	})
}
