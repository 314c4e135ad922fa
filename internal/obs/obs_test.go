package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestLogConfigFormats checks both handlers produce parseable output and the
// level floor filters below it.
func TestLogConfigFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := (&LogConfig{Format: "json", Level: "warn"}).NewLogger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("too quiet")
	l.Warn("loud enough", "k", 7)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("warn-level logger emitted %d lines, want 1: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("json log line does not parse: %v", err)
	}
	if rec["msg"] != "loud enough" || rec["k"] != float64(7) {
		t.Fatalf("json record = %v", rec)
	}

	buf.Reset()
	l, err = (&LogConfig{}).NewLogger(&buf) // zero value: text, info
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hidden")
	l.Info("shown")
	if got := buf.String(); !strings.Contains(got, "shown") || strings.Contains(got, "hidden") {
		t.Fatalf("default text logger output = %q", got)
	}
}

// TestLogConfigRejectsUnknown ensures typos fail loudly rather than falling
// back silently.
func TestLogConfigRejectsUnknown(t *testing.T) {
	if _, err := (&LogConfig{Level: "verbose"}).NewLogger(&bytes.Buffer{}); err == nil {
		t.Error("unknown level accepted")
	}
	if _, err := (&LogConfig{Format: "logfmt"}).NewLogger(&bytes.Buffer{}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRegisterLogFlags checks the flags land in the config.
func TestRegisterLogFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterLogFlags(fs)
	if err := fs.Parse([]string{"-log-format", "json", "-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	if c.Format != "json" || c.Level != "debug" {
		t.Fatalf("parsed config = %+v", c)
	}
}

// TestRequestIDs checks ids are unique, deterministic in the salt, and the
// i-th id is the hash of the salt and the 1-based sequence number i.
func TestRequestIDs(t *testing.T) {
	a, b := NewRequestIDs(42), NewRequestIDs(42)
	seen := make(map[string]bool)
	for i := 1; i <= 100; i++ {
		idA, idB := a.Next(), b.Next()
		if want := fmt.Sprintf("%016x", xrand.Hash64(42, uint64(i))); idA != want {
			t.Fatalf("id %d = %q, want %q", i, idA, want)
		}
		if idA != idB {
			t.Fatalf("same salt, same seq, different ids: %q vs %q", idA, idB)
		}
		if len(idA) != 16 {
			t.Fatalf("id %q is not 16 hex chars", idA)
		}
		if seen[idA] {
			t.Fatalf("duplicate id %q", idA)
		}
		seen[idA] = true
	}
	if other := NewRequestIDs(43).Next(); seen[other] {
		t.Fatalf("different salt reproduced an id: %q", other)
	}
}

// TestContextHelpers checks the request-id context plumbing and the logger
// that writes it: a record logged with the id's context carries request_id
// (through WithAttrs children too), one logged without it does not.
func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("RequestID on bare context = %q", got)
	}
	var buf bytes.Buffer
	l := RequestLogger(slog.New(slog.NewJSONHandler(&buf, nil)))
	l.InfoContext(ctx, "bare")
	ctx = WithRequestID(ctx, "deadbeef")
	if got := RequestID(ctx); got != "deadbeef" {
		t.Fatalf("RequestID = %q", got)
	}
	l.InfoContext(ctx, "scoped", "k", 1)
	l.With("svc", "x").WarnContext(ctx, "child")
	l.DebugContext(ctx, "below the level")
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3: %s", len(recs), buf.String())
	}
	if id, ok := recs[0]["request_id"]; ok {
		t.Errorf("record without a request context carries request_id %v", id)
	}
	for _, rec := range recs[1:] {
		if rec["request_id"] != "deadbeef" {
			t.Errorf("%v: request_id = %v, want deadbeef", rec["msg"], rec["request_id"])
		}
	}
	if recs[2]["svc"] != "x" {
		t.Errorf("child lost its attribute: %v", recs[2])
	}
}
