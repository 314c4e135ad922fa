package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// synthetic two-daemon trace: entry d0 queues 10us, routes 20us, forwards
// 60us; the hop on d1 covers 40us of the forward with its own 30us route.
func testSpans() []obs.PhaseSpan {
	return []obs.PhaseSpan{
		{Trace: "t1", ID: "r", Service: "d0", Kind: obs.SpanRequest, Start: 0, Dur: 100_000},
		{Trace: "t1", ID: "q", Parent: "r", Service: "d0", Kind: obs.SpanQueueWait, Start: 0, Dur: 10_000},
		{Trace: "t1", ID: "l", Parent: "r", Service: "d0", Kind: obs.SpanLocalRoute, Start: 10_000, Dur: 20_000},
		{Trace: "t1", ID: "f", Parent: "r", Service: "d0", Kind: obs.SpanForwardRPC, Start: 30_000, Dur: 60_000, Peer: "d1"},
		{Trace: "t1", ID: "h", Parent: "f", Service: "d1", Kind: obs.SpanHop, Start: 40_000, Dur: 40_000},
		{Trace: "t1", ID: "l2", Parent: "h", Service: "d1", Kind: obs.SpanLocalRoute, Start: 45_000, Dur: 30_000},
	}
}

func TestStitchCriticalPath(t *testing.T) {
	traces := stitch(testSpans())
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Roots != 1 || tr.Orphans != 0 || tr.Spans != 6 {
		t.Fatalf("trace shape %+v", tr)
	}
	if want := []string{"d0", "d1"}; len(tr.Services) != 2 || tr.Services[0] != want[0] || tr.Services[1] != want[1] {
		t.Fatalf("services %v", tr.Services)
	}
	// Attribution tiles the root: 10 queue + 20 route(d0) + 30 route(d1) +
	// (60-40) forward + 10 hop-own + 10 request-own = 100us.
	var total int64
	for _, us := range tr.Phases {
		total += us
	}
	if total != tr.DurUs || tr.DurUs != 100 {
		t.Fatalf("phases %v sum to %dus, root is %dus — attribution must tile exactly", tr.Phases, total, tr.DurUs)
	}
	want := map[string]int64{
		obs.SpanQueueWait:  10,
		obs.SpanLocalRoute: 50,
		obs.SpanForwardRPC: 20,
		obs.SpanHop:        10,
		obs.SpanRequest:    10,
	}
	for k, us := range want {
		if tr.Phases[k] != us {
			t.Fatalf("phase %s = %dus, want %d (all: %v)", k, tr.Phases[k], us, tr.Phases)
		}
	}
}

// Overlapping children (a hedged pair) resolve to the later-ending one; the
// loser adds nothing to the path.
func TestStitchHedgeOverlap(t *testing.T) {
	spans := []obs.PhaseSpan{
		{Trace: "t", ID: "r", Service: "d0", Kind: obs.SpanRequest, Start: 0, Dur: 100},
		{Trace: "t", ID: "a", Parent: "r", Service: "d0", Kind: obs.SpanForwardRPC, Start: 0, Dur: 90, Err: "cancelled"},
		{Trace: "t", ID: "b", Parent: "r", Service: "d0", Kind: obs.SpanForwardRPC, Start: 10, Dur: 90},
	}
	tr := stitch(spans)[0]
	var total int64
	for _, ns := range tr.Phases {
		total += ns
	}
	if total != tr.DurUs {
		t.Fatalf("hedged phases %v sum to %d, root %d", tr.Phases, total, tr.DurUs)
	}
}

// Duplicate span ids (the daemon bug a revisited hop chain used to trigger)
// must be counted and must not hang the walk, even when the duplicate links
// the tree into a cycle.
func TestStitchDuplicateIDsNoCycle(t *testing.T) {
	spans := []obs.PhaseSpan{
		{Trace: "t", ID: "r", Service: "d0", Kind: obs.SpanRequest, Start: 0, Dur: 100_000},
		{Trace: "t", ID: "a", Parent: "r", Service: "d0", Kind: obs.SpanForwardRPC, Start: 0, Dur: 90_000},
		{Trace: "t", ID: "b", Parent: "a", Service: "d1", Kind: obs.SpanHop, Start: 10_000, Dur: 70_000},
		{Trace: "t", ID: "a", Parent: "b", Service: "d0", Kind: obs.SpanHop, Start: 20_000, Dur: 40_000},
	}
	tr := stitch(spans)[0]
	if tr.DupIDs != 1 {
		t.Fatalf("duplicate ids = %d, want 1", tr.DupIDs)
	}
	var total int64
	for _, us := range tr.Phases {
		total += us
	}
	if total != tr.DurUs {
		t.Fatalf("cyclic trace attribution %v sums to %d, root %d", tr.Phases, total, tr.DurUs)
	}
}

func TestStitchDetectsOrphans(t *testing.T) {
	spans := testSpans()
	spans[4].Parent = "missing"
	tr := stitch(spans)[0]
	if tr.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", tr.Orphans)
	}
}

// readSpans decodes the span lines of a stream that also holds lines that
// are not spans, and counts those; -check fails on any of them, because a
// daemon writes spans only.
func TestReadSpansMixedStream(t *testing.T) {
	good := `{"trace":"t1","span":"r","service":"d0","kind":"request","start_unix_ns":0,"dur_ns":5}

{"trace":"t1","span":"q","parent":"r","service":"d0","kind":"local_route","start_unix_ns":0,"dur_ns":1,"hops":[{"step":0,"v":1,"w":2,"score":"+Inf"}]}
`
	in := `{"id":"abc123","graph":"default","spans":[{"v":1}]}
not json at all
` + good
	spans, skipped, err := readSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || skipped != 2 || len(spans[1].Hops) != 1 {
		t.Fatalf("spans %d skipped %d, want 2/2 with hops on the second", len(spans), skipped)
	}

	dir := t.TempDir()
	for name, body := range map[string]string{"good.jsonl": good, "mixed.jsonl": in} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-check", path}, io.Discard)
		if (err == nil) != (name == "good.jsonl") {
			t.Fatalf("-check %s: err = %v", name, err)
		}
	}
}
