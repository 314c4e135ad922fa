package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/route"
)

// PromWriter emits the Prometheus text exposition format (version 0.0.4)
// without depending on a client library. Callers declare each metric family
// once with Family and then emit its samples; the writer handles value and
// label escaping. Errors are sticky: check Err once after the last sample.
type PromWriter struct {
	w   io.Writer
	err error
}

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Family declares a metric family: its # HELP and # TYPE header lines.
// mtype is "counter", "gauge" or "histogram".
func (p *PromWriter) Family(name, mtype, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, mtype)
}

// Sample emits one sample line. Labels may be nil.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	p.RawSample(name, labels, formatPromValue(v))
}

// RawSample emits one sample line with a pre-formatted value, so federated
// re-emission reproduces peer values byte-for-byte instead of round-tripping
// them through float formatting.
func (p *PromWriter) RawSample(name string, labels []Label, raw string) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, raw)
		return
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		// The exposition format defines exactly three label escapes; every
		// other byte is written verbatim, as parseQuoted reads it back.
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	p.printf("%s{%s} %s\n", name, b.String(), raw)
}

// SampleInt is Sample for integer-valued counters and gauges.
func (p *PromWriter) SampleInt(name string, labels []Label, v int64) {
	p.Sample(name, labels, float64(v))
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// formatPromValue renders a sample value; infinities use the exposition
// spelling +Inf/-Inf (bucket bounds rely on this).
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslashes and newlines.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteEngineMetrics translates the engine counter snapshot into the
// smallworld_engine_* families: episode/move/batch counters, the failure
// taxonomy as one counter family labelled by class, and the log2 wall-time
// histogram as a cumulative native Prometheus histogram. Metric names and
// labels are stable; the DESIGN.md §9 table documents them.
func WriteEngineMetrics(p *PromWriter, s core.EngineStats) {
	p.Family("smallworld_engine_episodes_total", "counter", "Routing episodes finished by the engine.")
	p.SampleInt("smallworld_engine_episodes_total", nil, s.Episodes)
	p.Family("smallworld_engine_moves_total", "counter", "Message transmissions across all episodes.")
	p.SampleInt("smallworld_engine_moves_total", nil, s.Moves)
	p.Family("smallworld_engine_truncations_total", "counter", "Episodes that hit a protocol's move cap.")
	p.SampleInt("smallworld_engine_truncations_total", nil, s.Truncations)
	p.Family("smallworld_engine_failures_total", "counter", "Episodes that did not deliver (including panicked ones).")
	p.SampleInt("smallworld_engine_failures_total", nil, s.Failures)
	p.Family("smallworld_engine_panics_total", "counter", "Episodes whose protocol panicked (converted to errors).")
	p.SampleInt("smallworld_engine_panics_total", nil, s.Panics)
	p.Family("smallworld_engine_batches_total", "counter", "RunMilgram / RunMilgramCtx invocations.")
	p.SampleInt("smallworld_engine_batches_total", nil, s.Batches)

	p.Family("smallworld_engine_episode_failures_total", "counter", "Unsuccessful episodes by failure class.")
	// FailureTaxonomy always carries the full key set; emit in the stable
	// reporting order of route.Failures so scrapes diff cleanly.
	for _, f := range route.Failures() {
		p.SampleInt("smallworld_engine_episode_failures_total",
			[]Label{{"class", string(f)}}, s.FailureTaxonomy[string(f)])
	}

	// The engine's log2 histogram translates to a cumulative _bucket series:
	// per-bucket counts are summed up to each bound, so a scrape is valid
	// even if a future engine version omits empty buckets again.
	p.Family("smallworld_engine_episode_duration_seconds", "histogram", "Per-episode wall time.")
	var cum int64
	for _, b := range s.WallTimeHist {
		cum += b.Count
		p.SampleInt("smallworld_engine_episode_duration_seconds_bucket",
			[]Label{{"le", formatPromValue(b.UpperSeconds)}}, cum)
	}
	p.Sample("smallworld_engine_episode_duration_seconds_sum", nil, s.WallTimeTotal.Seconds())
	p.SampleInt("smallworld_engine_episode_duration_seconds_count", nil, cum)
}

// WriteRuntimeMetrics exposes the Go runtime: goroutines, heap and GC — the
// numbers an operator checks first when a daemon misbehaves (deeper digging
// goes through the pprof endpoints).
func WriteRuntimeMetrics(p *PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Family("smallworld_go_goroutines", "gauge", "Live goroutines.")
	p.SampleInt("smallworld_go_goroutines", nil, int64(runtime.NumGoroutine()))
	p.Family("smallworld_go_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.")
	p.SampleInt("smallworld_go_heap_alloc_bytes", nil, int64(ms.HeapAlloc))
	p.Family("smallworld_go_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	p.SampleInt("smallworld_go_heap_sys_bytes", nil, int64(ms.HeapSys))
	p.Family("smallworld_go_gc_cycles_total", "counter", "Completed GC cycles.")
	p.SampleInt("smallworld_go_gc_cycles_total", nil, int64(ms.NumGC))
	p.Family("smallworld_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	p.Sample("smallworld_go_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)
}
