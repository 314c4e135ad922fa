package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPromWriterEscaping pins the exposition escapes: label values escape
// only \\, \" and \n (a tab or a non-UTF-8 byte is written verbatim), HELP
// escapes backslash and newline, infinities spell +Inf/-Inf.
func TestPromWriterEscaping(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("m", "gauge", "line one\nback\\slash")
	p.Sample("m", []Label{{Name: "l", Value: "a\"b\\c\n\t\xff"}}, math.Inf(1))
	p.SampleInt("m", nil, -3)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP m line one\\nback\\\\slash\n" +
		"# TYPE m gauge\n" +
		"m{l=\"a\\\"b\\\\c\\n\t\xff\"} +Inf\n" +
		"m -3\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%q\nwant:\n%q", got, want)
	}
}

// errWriter fails after n bytes, to exercise sticky errors.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(&errWriter{n: 10})
	for i := 0; i < 5; i++ {
		p.Sample("metric_name_longer_than_the_budget", nil, 1)
	}
	if p.Err() == nil {
		t.Fatal("write error not surfaced")
	}
}

// goldenEngineExposition is WriteEngineMetrics of the fabricated snapshot in
// TestWriteEngineMetricsGolden; FuzzParseExposition seeds from it too.
const goldenEngineExposition = `# HELP smallworld_engine_episodes_total Routing episodes finished by the engine.
# TYPE smallworld_engine_episodes_total counter
smallworld_engine_episodes_total 10
# HELP smallworld_engine_moves_total Message transmissions across all episodes.
# TYPE smallworld_engine_moves_total counter
smallworld_engine_moves_total 55
# HELP smallworld_engine_truncations_total Episodes that hit a protocol's move cap.
# TYPE smallworld_engine_truncations_total counter
smallworld_engine_truncations_total 2
# HELP smallworld_engine_failures_total Episodes that did not deliver (including panicked ones).
# TYPE smallworld_engine_failures_total counter
smallworld_engine_failures_total 3
# HELP smallworld_engine_panics_total Episodes whose protocol panicked (converted to errors).
# TYPE smallworld_engine_panics_total counter
smallworld_engine_panics_total 1
# HELP smallworld_engine_batches_total RunMilgram / RunMilgramCtx invocations.
# TYPE smallworld_engine_batches_total counter
smallworld_engine_batches_total 4
# HELP smallworld_engine_episode_failures_total Unsuccessful episodes by failure class.
# TYPE smallworld_engine_episode_failures_total counter
smallworld_engine_episode_failures_total{class="dead-end"} 1
smallworld_engine_episode_failures_total{class="truncated"} 2
smallworld_engine_episode_failures_total{class="deadline"} 0
smallworld_engine_episode_failures_total{class="crashed-target"} 0
smallworld_engine_episode_failures_total{class="cancelled"} 0
smallworld_engine_episode_failures_total{class="shard-unreachable"} 0
# HELP smallworld_engine_episode_duration_seconds Per-episode wall time.
# TYPE smallworld_engine_episode_duration_seconds histogram
smallworld_engine_episode_duration_seconds_bucket{le="1e-06"} 4
smallworld_engine_episode_duration_seconds_bucket{le="2e-06"} 4
smallworld_engine_episode_duration_seconds_bucket{le="+Inf"} 10
smallworld_engine_episode_duration_seconds_sum 0.0015
smallworld_engine_episode_duration_seconds_count 10
`

// TestWriteEngineMetricsGolden pins the full engine translation — names,
// labels, cumulative histogram buckets, +Inf bound — against a fabricated
// snapshot, so a format regression is a visible diff, not a broken scrape.
func TestWriteEngineMetricsGolden(t *testing.T) {
	s := core.EngineStats{
		Episodes: 10, Moves: 55, Truncations: 2, Failures: 3, Panics: 1, Batches: 4,
		FailureTaxonomy: map[string]int64{
			"dead-end": 1, "truncated": 2, "deadline": 0, "crashed-target": 0, "cancelled": 0,
		},
		WallTimeHist: []core.DurationBucket{
			{UpperSeconds: 1e-6, Count: 4},
			{UpperSeconds: 2e-6, Count: 0},
			{UpperSeconds: math.Inf(1), Count: 6},
		},
		WallTimeTotal: 1500 * time.Microsecond,
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	WriteEngineMetrics(p, s)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), goldenEngineExposition; got != want {
		t.Fatalf("engine exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteEngineMetricsLiveStats checks the translation accepts a real
// Counters.Stats() snapshot: all 22 histogram buckets emit and the +Inf bucket equals
// the count.
func TestWriteEngineMetricsLiveStats(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	WriteEngineMetrics(p, core.NewCounters().Stats())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "smallworld_engine_episode_duration_seconds_bucket{"); n != 22 {
		t.Fatalf("emitted %d histogram buckets, want 22", n)
	}
	if !strings.Contains(out, `_bucket{le="+Inf"}`) {
		t.Fatal("missing +Inf bucket")
	}
}

// TestWriteRuntimeMetrics smoke-tests the Go runtime writer.
func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	WriteRuntimeMetrics(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"smallworld_go_goroutines ",
		"smallworld_go_heap_alloc_bytes ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
