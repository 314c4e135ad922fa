package serve

import (
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

// handleMetrics serves GET /metrics: the Prometheus text exposition of this
// server — its engine counters (episodes, moves, failure taxonomy, the
// wall-time histogram), the serving layer (pool, breakers, retries, swaps),
// the span log and the Go runtime. The translation is dependency-free
// (obs.PromWriter) and the metric names are stable; DESIGN.md §9 carries the
// full name table.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, 0, "GET required")
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	if err := s.writeMetricsTo(w); err != nil {
		obs.Logger(r.Context()).Warn("metrics write failed", "err", err)
	}
}

// writeMetricsTo renders the full exposition to w. The federation endpoint
// (/cluster/metrics) calls this directly to scrape the local daemon
// in-process — no loopback HTTP round-trip.
func (s *Server) writeMetricsTo(w io.Writer) error {
	p := obs.NewPromWriter(w)
	obs.WriteEngineMetrics(p, s.counters.Stats())
	s.writeServeMetrics(p)
	s.writeMutateMetrics(p)
	if s.clusterNode != nil {
		s.writeClusterMetrics(p)
		s.writeReplicationMetrics(p)
	}
	s.writeTraceMetrics(p)
	obs.WriteRuntimeMetrics(p)
	return p.Err()
}

// handleVars serves GET /debug/vars in expvar's JSON shape: the command
// line, the Go memory statistics, and this server's engine counters and
// serving-layer snapshot.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, map[string]any{
		"cmdline":           os.Args,
		"memstats":          &ms,
		"smallworld.engine": s.counters.Stats(),
		"smallworld.serve":  s.Stats(),
	})
}

// writeTraceMetrics emits the per-phase request-time histograms, the span-log
// counters, and the federation scrape counters. The phase histograms are
// recorded on every request — traced or not — so the attribution is complete
// even at low sample rates; spans only add the per-request join key.
func (s *Server) writeTraceMetrics(p *obs.PromWriter) {
	p.Family("smallworld_request_phase_seconds", "histogram", "Request wall time by phase (queue_wait, local_route, forward_rpc, hedge_wait, retry_backoff, anti_entropy).")
	for ph := 0; ph < phaseCount; ph++ {
		s.phaseLat[ph].WriteHistogramSamples(p, "smallworld_request_phase_seconds",
			[]obs.Label{{Name: "phase", Value: phaseNames[ph]}})
	}
	if s.spans != nil {
		st := s.spans.Stats()
		p.Family("smallworld_trace_spans_published_total", "counter", "Phase spans recorded by the distributed span log.")
		p.SampleInt("smallworld_trace_spans_published_total", nil, st.Published)
		p.Family("smallworld_trace_spans_dropped_total", "counter", "Phase spans overwritten before export (ring full).")
		p.SampleInt("smallworld_trace_spans_dropped_total", nil, st.Dropped)
		p.Family("smallworld_trace_spans_buffered", "gauge", "Completed spans currently held in the ring.")
		p.SampleInt("smallworld_trace_spans_buffered", nil, int64(st.Buffered))
	}
	if s.clusterNode != nil {
		p.Family("smallworld_federation_scrapes_total", "counter", "Peer scrapes attempted by GET /cluster/metrics.")
		p.SampleInt("smallworld_federation_scrapes_total", nil, s.fedScrapes.Load())
		p.Family("smallworld_federation_scrape_failures_total", "counter", "Peer scrapes that failed or returned unparsable expositions.")
		p.SampleInt("smallworld_federation_scrape_failures_total", nil, s.fedScrapeFails.Load())
	}
}

// breakerStateValue encodes breaker states as gauge values: 0 closed,
// 1 open, 2 half-open (so "anything non-zero needs attention" alerts work).
func breakerStateValue(st BreakerState) float64 {
	switch st {
	case BreakerOpen:
		return 1
	case BreakerHalfOpen:
		return 2
	}
	return 0
}

// writeServeMetrics emits the smallworld_serve_* families.
func (s *Server) writeServeMetrics(p *obs.PromWriter) {
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	p.Family("smallworld_serve_draining", "gauge", "1 while the server drains for shutdown.")
	p.SampleInt("smallworld_serve_draining", nil, draining)
	p.Family("smallworld_serve_graphs", "gauge", "Installed graph snapshots.")
	p.SampleInt("smallworld_serve_graphs", nil, int64(len(*s.graphs.Load())))
	p.Family("smallworld_serve_inflight", "gauge", "Requests holding a worker slot.")
	p.SampleInt("smallworld_serve_inflight", nil, int64(s.pool.InFlight()))
	p.Family("smallworld_serve_waiting", "gauge", "Admitted requests queued for a worker.")
	p.SampleInt("smallworld_serve_waiting", nil, int64(s.pool.Waiting()))
	p.Family("smallworld_serve_admitted_total", "counter", "Requests admitted by the pool.")
	p.SampleInt("smallworld_serve_admitted_total", nil, s.pool.Acquired())
	p.Family("smallworld_serve_shed_total", "counter", "Requests shed with 429 by the admission pool.")
	p.SampleInt("smallworld_serve_shed_total", nil, s.pool.Shed())
	p.Family("smallworld_serve_retries_total", "counter", "Transient-failure retry attempts.")
	p.SampleInt("smallworld_serve_retries_total", nil, s.retries.Load())
	p.Family("smallworld_serve_swaps_total", "counter", "Graph snapshots installed via /admin/swap.")
	p.SampleInt("smallworld_serve_swaps_total", nil, s.swaps.Load())
	p.Family("smallworld_serve_quarantined_total", "counter", "Swap snapshots rejected by checksum/format verification.")
	p.SampleInt("smallworld_serve_quarantined_total", nil, s.quarantined.Load())
	p.Family("smallworld_serve_swap_noops_total", "counter", "Path swaps skipped: fingerprint already installed.")
	p.SampleInt("smallworld_serve_swap_noops_total", nil, s.swapNoops.Load())
	p.Family("smallworld_serve_mutations_total", "counter", "Mutation batches committed via /admin/mutate.")
	p.SampleInt("smallworld_serve_mutations_total", nil, s.mutations.Load())
	p.Family("smallworld_serve_compact_swaps_total", "counter", "Compacted snapshots hot-swapped into the mutable slot.")
	p.SampleInt("smallworld_serve_compact_swaps_total", nil, s.compactSwaps.Load())

	// Breakers are labelled by their (graph, protocol) pair; keys are
	// sorted so consecutive scrapes diff cleanly.
	type brSample struct {
		graph, proto string
		state        float64
		opens        int64
	}
	s.breakerMu.Lock()
	samples := make([]brSample, 0, len(s.breakers))
	for key, b := range s.breakers {
		graph, proto := key, ""
		// Keys are "graph/protocol"; protocol names never contain '/', so
		// the last separator is the split point even for odd graph names.
		if i := strings.LastIndex(key, "/"); i >= 0 {
			graph, proto = key[:i], key[i+1:]
		}
		samples = append(samples, brSample{graph, proto, breakerStateValue(b.State()), b.Opens()})
	}
	s.breakerMu.Unlock()
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].graph != samples[j].graph {
			return samples[i].graph < samples[j].graph
		}
		return samples[i].proto < samples[j].proto
	})
	// One family at a time: the exposition format requires every sample of
	// a family to follow its TYPE line contiguously.
	p.Family("smallworld_serve_breaker_state", "gauge", "Circuit breaker state: 0 closed, 1 open, 2 half-open.")
	for _, b := range samples {
		p.Sample("smallworld_serve_breaker_state",
			[]obs.Label{{Name: "graph", Value: b.graph}, {Name: "protocol", Value: b.proto}}, b.state)
	}
	p.Family("smallworld_serve_breaker_opens_total", "counter", "Cumulative breaker trips to open.")
	for _, b := range samples {
		p.SampleInt("smallworld_serve_breaker_opens_total",
			[]obs.Label{{Name: "graph", Value: b.graph}, {Name: "protocol", Value: b.proto}}, b.opens)
	}
}

// handleTrace serves GET /debug/trace: the buffered phase spans as JSON
// Lines, oldest first — one obs.PhaseSpan per line, with the per-hop
// trajectory on each local_route span. 404 when the daemon runs untraced.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, 0, "GET required")
		return
	}
	if s.spans == nil {
		writeError(w, http.StatusNotFound, 0, "tracing disabled (start the daemon with -trace-sample > 0)")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.spans.WriteJSONL(w); err != nil {
		obs.Logger(r.Context()).Warn("span write failed", "err", err)
	}
}
