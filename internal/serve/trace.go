package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the serving layer's half of distributed tracing: the phase
// vocabulary of the per-phase latency histograms, and reqTrace — the nil-safe
// per-request span builder that turns the request path's milestones (queue
// wait, breaker verdicts, engine episodes with the hops they walked, forward
// RPCs, hedge waits, backoff sleeps) into obs.PhaseSpans with deterministic
// ids. Three entry points start a trace:
//
//	startEntryTrace  POST /route, /route/batch — the sampling decision and
//	                 the trace id are pure hashes of (seed, sequence), so two
//	                 identical runs trace identical requests with identical
//	                 ids at any GOMAXPROCS.
//	startHopTrace    a hop (frame or JSON), /cluster/replicate, /cluster/segment —
//	                 adopt-only: the caller's traceparent (a frame field for
//	                 hops, the Traceparent header otherwise) carries the trace
//	                 id and the parent span; no traceparent, no spans. The
//	                 entry daemon's sampling decision therefore propagates
//	                 across the whole hop chain.
//	startLocalTrace  work the daemon starts on its own behalf (anti-entropy
//	                 rounds, journal ships) — a separate deterministic id lane
//	                 so internal traces never collide with request traces.
//
// Every method is safe on a nil *reqTrace: a daemon with tracing off pays a
// nil check per record site and nothing else.

// The request phases with a dedicated latency histogram on /metrics
// (smallworld_request_phase_seconds{phase=...}). The names double as the
// span kinds cmd/tracestitch attributes time to.
const (
	phaseQueue = iota
	phaseRoute
	phaseForward
	phaseHedge
	phaseBackoff
	phaseAntiEntropy
	phaseCount
)

// phaseNames spells the histogram's phase label values, indexed by the
// constants above.
var phaseNames = [phaseCount]string{
	obs.SpanQueueWait,
	obs.SpanLocalRoute,
	obs.SpanForwardRPC,
	obs.SpanHedgeWait,
	obs.SpanRetryBackoff,
	obs.SpanAntiEntropy,
}

// reqTrace accumulates the spans of one trace on one daemon: a root span
// (request, hop, or anti_entropy) opened at construction and published by
// finish, plus flat phase children recorded as they complete. Span ids are
// assigned serially on the owning goroutine (obs.SpanID over a per-trace
// counter), so ids are deterministic even when the RPCs they name race.
type reqTrace struct {
	log        *obs.SpanLog
	trace      string
	svc        string
	n          uint64
	rootID     string
	rootParent string
	rootKind   string
	rootDetail string
	rootStart  time.Time
	done       bool
}

// startEntryTrace samples one entry request (POST /route or /route/batch)
// into a new trace whose root carries the request's X-Request-ID; nil when
// tracing is off or the request fell outside the sample.
func (s *Server) startEntryTrace(ctx context.Context) *reqTrace {
	if s.spans == nil {
		return nil
	}
	seq := s.traceSeq.Add(1)
	if !s.spans.Sampled(seq) {
		return nil
	}
	return s.newTrace(s.spans.TraceID(seq), "", obs.SpanRequest, obs.RequestID(ctx))
}

// startHopTrace adopts the trace context a cluster RPC arrived with; nil when
// tracing is off or the caller sent no (or a malformed) traceparent tp — a
// bad one never fails the RPC, the hop just goes unrecorded.
func (s *Server) startHopTrace(tp, detail string) *reqTrace {
	if s.spans == nil {
		return nil
	}
	trace, parent, ok := obs.ParseTraceparent(tp)
	if !ok {
		return nil
	}
	return s.newTrace(trace, parent, obs.SpanHop, detail)
}

// startLocalTrace samples one internally-initiated unit of work (an
// anti-entropy round, a journal ship) into a new trace on the internal id
// lane.
func (s *Server) startLocalTrace(kind, detail string) *reqTrace {
	if s.spans == nil {
		return nil
	}
	seq := s.localSeq.Add(1)
	if !s.spans.Sampled(seq) {
		return nil
	}
	return s.newTrace(s.spans.InternalTraceID(seq), "", kind, detail)
}

func (s *Server) newTrace(trace, parent, kind, detail string) *reqTrace {
	rt := &reqTrace{
		log:        s.spans,
		trace:      trace,
		svc:        s.spans.Service(),
		rootParent: parent,
		rootKind:   kind,
		rootDetail: detail,
		rootStart:  time.Now(),
	}
	// A hop chain can revisit a daemon (d0 -> d1 -> d0): each visit must
	// allocate span ids on its own lane or the second visit would repeat the
	// first's ids and corrupt the trace tree. The adopted parent span id is
	// unique per visit, so it seeds the lane; the entry visit keeps lane 0.
	if parent != "" {
		rt.n = obs.HashString(parent)
	}
	rt.rootID = rt.allocID()
	return rt
}

// allocID hands out the next deterministic span id of this (trace, service)
// pair. Callers that need the id before the span completes (forward RPCs put
// it in the Traceparent header they send) allocate here and end later.
func (rt *reqTrace) allocID() string {
	if rt == nil {
		return ""
	}
	id := obs.SpanID(rt.trace, rt.svc, rt.n)
	rt.n++
	return id
}

// traceparent formats the header value that makes spanID the parent of
// whatever the receiving daemon records ("" on an untraced request).
func (rt *reqTrace) traceparent(spanID string) string {
	if rt == nil || spanID == "" {
		return ""
	}
	return obs.FormatTraceparent(rt.trace, spanID)
}

// add records one completed phase span under the root.
func (rt *reqTrace) add(kind string, start time.Time, d time.Duration, peer, detail, errMsg string) {
	rt.end(rt.allocID(), kind, start, d, peer, detail, errMsg)
}

// localRoute records one local_route span carrying the hops hc collected
// from the walk (hc is nil exactly when rt is).
func (rt *reqTrace) localRoute(start time.Time, d time.Duration, detail, errMsg string, hc *obs.HopCollector) {
	if rt == nil {
		return
	}
	if hc.Cut > 0 {
		cut := fmt.Sprintf("hops cut at %d, %d dropped", obs.MaxHops, hc.Cut)
		if detail != "" {
			cut = detail + "; " + cut
		}
		detail = cut
	}
	rt.end(rt.allocID(), obs.SpanLocalRoute, start, d, "", detail, errMsg, hc.Hops...)
}

// end records a completed phase span under a pre-allocated id; only a
// local_route span passes hops.
func (rt *reqTrace) end(id, kind string, start time.Time, d time.Duration, peer, detail, errMsg string, hops ...obs.Span) {
	if rt == nil {
		return
	}
	rt.log.Publish(obs.PhaseSpan{
		Trace:   rt.trace,
		ID:      id,
		Parent:  rt.rootID,
		Service: rt.svc,
		Kind:    kind,
		Start:   start.UnixNano(),
		Dur:     int64(d),
		Peer:    peer,
		Detail:  detail,
		Err:     errMsg,
		Hops:    hops,
	})
}

// finish closes and publishes the root span. Idempotent, so handlers can
// defer it and still finish early on a classified error path.
func (rt *reqTrace) finish(errMsg string) {
	if rt == nil || rt.done {
		return
	}
	rt.done = true
	rt.log.Publish(obs.PhaseSpan{
		Trace:   rt.trace,
		ID:      rt.rootID,
		Parent:  rt.rootParent,
		Service: rt.svc,
		Kind:    rt.rootKind,
		Start:   rt.rootStart.UnixNano(),
		Dur:     int64(time.Since(rt.rootStart)),
		Detail:  rt.rootDetail,
		Err:     errMsg,
	})
}
