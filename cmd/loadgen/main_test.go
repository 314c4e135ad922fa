package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/serve"
)

// testDaemon serves an n-vertex GIRG on a loopback httptest server and
// records the largest vertex id any POST /route asked for.
func testDaemon(t *testing.T, n float64) (addr string, verts int, maxID func() int) {
	t.Helper()
	p := girg.DefaultParams(n)
	p.FixedN = true
	nw, err := core.NewGIRG(p, 3, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	srv.AddNetwork(serve.DefaultGraph, nw)
	h := srv.Handler()
	var mu sync.Mutex
	largest := -1
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/route" {
			body, _ := io.ReadAll(r.Body)
			var q serve.RouteRequest
			if json.Unmarshal(body, &q) == nil {
				mu.Lock()
				largest = max(largest, q.S, q.T)
				mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), nw.Graph.N(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return largest
	}
}

// runLoadgen runs loadgen with args and returns the summary it printed, its
// exit code and its error.
func runLoadgen(t *testing.T, args ...string) (summary, int, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, runErr := run(args, out)
	var s summary
	if b, err := os.ReadFile(out.Name()); err == nil && len(b) > 0 {
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatalf("summary does not decode: %v: %s", err, b)
		}
	}
	return s, code, runErr
}

// TestRunReadsIDSpaceFromReadyz drives a daemon by -addr alone: the query
// pairs come from the vertex ids its /readyz reports, so every query is in
// range and the draws reach the top of the id space.
func TestRunReadsIDSpaceFromReadyz(t *testing.T) {
	addr, verts, maxID := testDaemon(t, 400)
	s, code, err := runLoadgen(t, "-addr", addr, "-rps", "400", "-duration", "250ms", "-min-success", "0.5")
	if code != 0 || err != nil {
		t.Fatalf("run = %d, %v; summary %+v", code, err, s)
	}
	if s.Sent == 0 || s.Success == 0 {
		t.Fatalf("nothing routed: %+v", s)
	}
	if got := maxID(); got >= verts || got < verts/2 {
		t.Fatalf("largest queried id %d, want in [%d, %d)", got, verts/2, verts)
	}
}

// TestRunReadyzUnreadable: without a readable /readyz there is no id space
// to draw queries from, and run says so instead of sending any.
func TestRunReadyzUnreadable(t *testing.T) {
	// No graph installed: /readyz answers 503.
	empty := httptest.NewServer(serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler())
	defer empty.Close()
	_, code, err := runLoadgen(t, "-addr", strings.TrimPrefix(empty.URL, "http://"), "-duration", "100ms")
	if code != 1 || err == nil || !strings.Contains(err.Error(), "/readyz: status 503") {
		t.Fatalf("run against a daemon with no graph = %d, %v; want exit 1 naming /readyz's 503", code, err)
	}
}
