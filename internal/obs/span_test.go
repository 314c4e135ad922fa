package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip pins the header wire format: what Format emits,
// Parse accepts, and malformed values are rejected without error returns.
func TestTraceparentRoundTrip(t *testing.T) {
	trace := DistTraceID(7, 42)
	span := SpanID(trace, "d0", 3)
	v := FormatTraceparent(trace, span)
	if len(v) != 55 {
		t.Fatalf("traceparent %q is %d bytes, want 55", v, len(v))
	}
	gotTrace, gotSpan, ok := ParseTraceparent(v)
	if !ok || gotTrace != trace || gotSpan != span {
		t.Fatalf("round trip: got (%q, %q, %v), want (%q, %q, true)", gotTrace, gotSpan, ok, trace, span)
	}
	for _, bad := range []string{
		"",
		"00-" + trace + "-" + span,         // missing flags
		"00-" + trace + "-" + span + "-1",  // short flags
		"00-" + trace + "-" + span + "-zz", // non-hex flags
		"00-" + trace + "-" + span + "-0G",
		"00-" + strings.ToUpper(trace) + "-" + span + "-01",   // uppercase hex
		"00-" + trace[:31] + "g-" + span + "-01",              // non-hex digit
		"00-" + strings.Repeat("0", 32) + "-" + span + "-01",  // all-zero trace id
		"00-" + trace + "-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		strings.Replace(v, "-", "_", 1),
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent accepted malformed %q", bad)
		}
	}
}

// FuzzTraceparent pins what ParseTraceparent accepts: ids of the right
// length in lower-case hex, neither all zeros, and a value Format reproduces
// up to the flags byte pair.
func FuzzTraceparent(f *testing.F) {
	trace := DistTraceID(7, 42)
	f.Add(FormatTraceparent(trace, SpanID(trace, "d0", 3)))
	f.Add("00-" + trace + "-" + SpanID(trace, "d0", 3) + "-10")
	f.Add("00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01")
	f.Fuzz(func(t *testing.T, v string) {
		tr, sp, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		for _, id := range []struct {
			s string
			n int
		}{{tr, 32}, {sp, 16}} {
			if len(id.s) != id.n || !isHex(id.s) || strings.Trim(id.s, "0") == "" {
				t.Fatalf("ParseTraceparent(%q) accepted id %q", v, id.s)
			}
		}
		if got := FormatTraceparent(tr, sp); got[:53] != v[:53] || !isHex(v[53:]) {
			t.Fatalf("ParseTraceparent(%q) formats back as %q", v, got)
		}
	})
}

// TestDistIDsDeterministic pins the pure-hash derivations: same inputs, same
// ids; distinct lanes, seqs and services, distinct ids.
func TestDistIDsDeterministic(t *testing.T) {
	if DistTraceID(1, 2) != DistTraceID(1, 2) {
		t.Fatal("DistTraceID not deterministic")
	}
	if DistTraceID(1, 2) == DistTraceID(1, 3) || DistTraceID(1, 2) == DistTraceID(2, 2) {
		t.Fatal("DistTraceID collides across seq/salt")
	}
	tr := DistTraceID(1, 2)
	if SpanID(tr, "a", 0) == SpanID(tr, "b", 0) {
		t.Fatal("SpanID collides across services")
	}
	if SpanID(tr, "a", 0) == SpanID(tr, "a", 1) {
		t.Fatal("SpanID collides across sequence numbers")
	}
}

// TestSpanLogRing pins the bounded ring: capacity-filled logs overwrite the
// oldest spans, count drops, and Snapshot returns oldest-first.
func TestSpanLogRing(t *testing.T) {
	l := NewSpanLog(SpanLogConfig{Service: "s", Seed: 1, SampleRate: 1, Capacity: 4})
	for i := 0; i < 6; i++ {
		l.Publish(PhaseSpan{Trace: "t", ID: string(rune('a' + i)), Service: "s", Kind: SpanRequest, Start: int64(i)})
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot holds %d spans, want capacity 4", len(got))
	}
	for i, sp := range got {
		if want := int64(i + 2); sp.Start != want {
			t.Fatalf("snapshot[%d].Start = %d, want %d (oldest-first after wrap)", i, sp.Start, want)
		}
	}
	st := l.Stats()
	if st.Published != 6 || st.Dropped != 2 || st.Buffered != 4 {
		t.Fatalf("stats %+v, want published 6 dropped 2 buffered 4", st)
	}
}

// TestSpanLogSampling pins the deterministic sampler: rate 0 samples
// nothing, rate 1 everything, and a mid rate picks the same subset on every
// run (a pure hash of seq).
func TestSpanLogSampling(t *testing.T) {
	off := NewSpanLog(SpanLogConfig{Service: "s", SampleRate: 0})
	on := NewSpanLog(SpanLogConfig{Service: "s", SampleRate: 1})
	half1 := NewSpanLog(SpanLogConfig{Service: "s", Seed: 3, SampleRate: 0.5})
	half2 := NewSpanLog(SpanLogConfig{Service: "s", Seed: 3, SampleRate: 0.5})
	sampled := 0
	for seq := uint64(0); seq < 200; seq++ {
		if off.Sampled(seq) {
			t.Fatal("rate-0 log sampled a request")
		}
		if !on.Sampled(seq) {
			t.Fatal("rate-1 log skipped a request")
		}
		if half1.Sampled(seq) != half2.Sampled(seq) {
			t.Fatalf("sampling diverged at seq %d despite equal seeds", seq)
		}
		if half1.Sampled(seq) {
			sampled++
		}
	}
	if sampled < 60 || sampled > 140 {
		t.Fatalf("rate-0.5 sampled %d/200 — hash looks biased", sampled)
	}
}

// TestSpanLogNilSafe pins the nil contract every serve-layer call site
// relies on: all methods are no-ops on a nil log.
func TestSpanLogNilSafe(t *testing.T) {
	var l *SpanLog
	if l.Sampled(1) || l.Service() != "" || l.TraceID(1) != "" || l.InternalTraceID(1) != "" {
		t.Fatal("nil SpanLog not inert")
	}
	l.Publish(PhaseSpan{})
	if got := l.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL wrote %q, err %v", buf.String(), err)
	}
	if st := l.Stats(); st != (SpanLogStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestSpanLogJSONL pins the wire shape: one object per line with the
// snake_case keys tracestitch decodes.
func TestSpanLogJSONL(t *testing.T) {
	l := NewSpanLog(SpanLogConfig{Service: "d0", Seed: 1, SampleRate: 1})
	l.Publish(PhaseSpan{Trace: "t1", ID: "s1", Service: "d0", Kind: SpanRequest, Start: 100, Dur: 50})
	hops := []Span{{Step: 0, V: 5, W: 1.5, Score: 0.25}, {Step: 1, V: 7, W: 3, Score: math.Inf(1)}}
	l.Publish(PhaseSpan{Trace: "t1", ID: "s2", Parent: "s1", Service: "d0", Kind: SpanLocalRoute, Peer: "d1", Err: "boom", Hops: hops})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trace", "span", "service", "kind", "start_unix_ns", "dur_ns"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("span line missing %q: %s", key, lines[0])
		}
	}
	var sp PhaseSpan
	if err := json.Unmarshal([]byte(lines[1]), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Parent != "s1" || sp.Peer != "d1" || sp.Err != "boom" || !reflect.DeepEqual(sp.Hops, hops) {
		t.Fatalf("decoded span %+v lost fields", sp)
	}
	if strings.Contains(lines[0], `"hops"`) {
		t.Fatalf("hop-less span serialises a hops key: %s", lines[0])
	}
}
