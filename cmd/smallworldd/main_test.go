package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/girg"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/serve"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	p := girg.DefaultParams(400)
	p.FixedN = true
	g, err := girg.Generate(p, 11, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.girg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port, exercises the
// HTTP surface — routing, metrics, tracing, profiling — and shuts it down
// with SIGTERM, the same drain path a process manager uses.
func TestDaemonEndToEnd(t *testing.T) {
	path := writeTestGraph(t)
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-in", path, "-workers", "2", "-queue", "2",
			"-trace-sample", "1", "-trace-out", traceOut}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", probe, resp.StatusCode)
		}
	}

	body, _ := json.Marshal(serve.RouteRequest{S: 1, T: 42})
	resp, err := http.Post(base+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr serve.RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/route = %d, want 200", resp.StatusCode)
	}
	if rr.Attempts < 1 {
		t.Fatalf("attempts = %d", rr.Attempts)
	}
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("/route response carries no X-Request-ID")
	}

	// Prometheus exposition with engine and serve families.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", mresp.StatusCode)
	}
	for _, family := range []string{"smallworld_engine_episodes_total", "smallworld_serve_admitted_total"} {
		if !bytes.Contains(metrics, []byte(family)) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// The sampled trace of the routed request, tied to its X-Request-ID.
	tresp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	traces, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace = %d, want 200", tresp.StatusCode)
	}
	if !bytes.Contains(traces, []byte(rid)) {
		t.Fatalf("/debug/trace does not mention request id %s:\n%s", rid, traces)
	}

	// The profiling surface answers.
	presp, err := http.Get(base + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine = %d, want 200", presp.StatusCode)
	}

	// SIGTERM: the daemon drains and run returns cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}

	// -trace-out flushed the held spans as JSONL on shutdown: every line is a
	// phase span, and the routed walk's hops end at its target.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace-out file: %v", err)
	}
	reached := false
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var sp obs.PhaseSpan
		if err := json.Unmarshal(line, &sp); err != nil || sp.Trace == "" || sp.ID == "" {
			t.Fatalf("trace-out line is not a phase span (%v): %s", err, line)
		}
		if sp.Kind == obs.SpanLocalRoute && len(sp.Hops) > 0 && sp.Hops[len(sp.Hops)-1].V == 42 {
			reached = true
		}
	}
	if !reached {
		t.Fatalf("no local_route span in trace-out walks to vertex 42:\n%s", data)
	}
}

// TestDaemonBadFlags verifies flag and load errors surface as errors, not
// hangs.
func TestDaemonBadFlags(t *testing.T) {
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "missing.girg")}, nil); err == nil {
		t.Fatal("missing graph file did not error")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, nil); err == nil {
		t.Fatal("bad address did not error")
	}
}

// TestDaemonSamplesFreshGraph covers the sample-on-boot path with a tiny
// graph and an immediate shutdown.
func TestDaemonSamplesFreshGraph(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-n", "300"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := vars["smallworld.serve"]; !ok {
		t.Fatal("/debug/vars missing smallworld.serve")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run after SIGTERM = %v", err)
	}
}
