package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/route"
)

// This file is the batch half of the routing API: POST /route/batch answers
// many queries under one admission slot, and POST /route is a batch of one —
// both run through routeOne, the single retry/breaker/budget core, over a
// pooled episodeState whose buffers are reused across every attempt and
// every item of a request.

// episodeState is the pooled per-request routing state: the scratch buffers
// and the Result every engine attempt builds into (core.RouteEpisodeInto).
// One admitted request — a whole batch — checks out one state and threads it
// through all its episodes, so steady-state serving stops allocating a
// Result path per episode.
type episodeState struct {
	sc  route.Scratch
	out route.Result
}

var episodePool = sync.Pool{New: func() interface{} { return new(episodeState) }}

// routeOutcome is what one admitted query resolves to: either an item-level
// rejection (errMsg set) or a routed episode (resp set). clientGone reports
// that the client departed during retry backoff — the caller stops
// processing further items, there is nobody left to answer.
type routeOutcome struct {
	status     int
	resp       RouteResponse
	errMsg     string
	retryAfter time.Duration
	clientGone bool
}

// routeOne runs one admitted, validated routing query: breaker gate, then
// budgeted engine episodes with transient-failure retries under the caller's
// deadline. It is the shared core of POST /route and POST /route/batch; the
// caller has resolved the graph, validated the query and acquired an
// admission slot. rt carries the request's distributed phase trace (nil when
// untraced) and queued the admission wait already measured by the caller,
// repeated into this query's Timings.
func (s *Server) routeOne(r *http.Request, nw *core.Network, graphName string, q RouteRequest, deadline time.Time, es *episodeState, rt *reqTrace, queued time.Duration) routeOutcome {
	logger := obs.Logger(r.Context())
	protoName := q.Protocol
	tm := &Timings{QueueUs: queued.Microseconds()}

	// Circuit breaker: fail fast while this (graph, protocol) is unhealthy.
	br := s.breaker(graphName, protoName)
	if retryIn, err := br.Allow(); err != nil {
		rt.add(obs.SpanBreaker, time.Now(), 0, "", graphName+"/"+protoName, "open")
		logger.Warn("route rejected", "reason", "breaker open",
			"graph", graphName, "protocol", protoName, "retry_in_ms", retryIn.Milliseconds())
		return routeOutcome{
			status:     http.StatusServiceUnavailable,
			errMsg:     fmt.Sprintf("circuit breaker open for %s/%s", graphName, protoName),
			retryAfter: retryIn,
		}
	}

	requestID := s.reqID.Add(1)
	faultSeed := q.FaultSeed
	if faultSeed == 0 {
		faultSeed = hash64(requestID, uint64(q.S)<<32|uint64(uint32(q.T)))
	}
	start := time.Now()

	// A traced query's local_route spans name the fault specs in effect.
	var faultDetail string
	if rt != nil {
		specs := make([]string, len(q.Faults))
		for i, f := range q.Faults {
			specs[i] = fmt.Sprintf("fault %s rate=%g", f.Model, f.Rate)
		}
		faultDetail = strings.Join(specs, ", ")
	}

	var (
		res      = &es.out
		epErr    error
		attempts int
		fwd      routeFwd
	)
	clustered := s.clusterEligible(nw, protoName, q)
	for attempt := 1; ; attempt++ {
		attempts = attempt
		remaining := time.Until(deadline)
		if remaining <= 0 {
			*res = route.Result{Path: append(res.Path[:0], q.S), Unique: 1, Stuck: -1, Failure: route.FailDeadline}
			break
		}
		var plan *faults.Plan
		if len(q.Faults) > 0 {
			// Salt the plan seed per attempt: transient fault draws (and the
			// crash sets of churn models) re-roll on retry, which is what
			// makes crashed-target a retryable class at all.
			plan, epErr = faults.NewPlan(hash64(faultSeed, uint64(attempt)), q.Faults...)
			if epErr != nil {
				break
			}
		}
		epCfg := core.EpisodeConfig{
			Protocol: core.Protocol(protoName),
			S:        q.S, T: q.T,
			MaxHops:  s.cfg.MaxHops,
			Timeout:  remaining,
			Faults:   plan,
			Episode:  attempt,
			Counters: s.counters,
		}
		if clustered {
			// Sharded path: partial greedy over the local shard, continuation
			// forwarded to the owning peer, merged result recorded as one
			// engine episode. Budget mapping mirrors RouteEpisodeInto's.
			fwd = s.clusterRoute(r.Context(), graphName, q.S, q.T,
				time.Now().Add(remaining), es, rt, tm)
			epErr = nil
		} else {
			// The engine replays a traced episode's walk into hc once it ends.
			var hc *obs.HopCollector
			if rt != nil {
				hc = &obs.HopCollector{}
				epCfg.Observer = hc
			}
			epStart := time.Now()
			epErr = nw.RouteEpisodeInto(epCfg, &es.sc, res)
			epDur := time.Since(epStart)
			tm.RouteUs += epDur.Microseconds()
			s.phaseLat[phaseRoute].Record(epDur)
			rt.localRoute(epStart, epDur, faultDetail, spanErr(epErr, res), hc)
		}
		if epErr != nil || res.Success || !Transient(res.Failure) {
			break
		}
		if attempt >= s.cfg.Retry.MaxAttempts {
			break
		}
		// Back off before the next attempt, but never past the request
		// deadline or the client's departure.
		wait := s.cfg.Retry.Backoff(requestID, attempt)
		if rem := time.Until(deadline); wait > rem {
			wait = rem
		}
		s.retries.Add(1)
		logger.Info("route retrying", "attempt", attempt, "failure", string(res.Failure),
			"backoff_ms", wait.Milliseconds())
		if wait > 0 {
			bkStart := time.Now()
			t := time.NewTimer(wait)
			select {
			case <-t.C:
				slept := time.Since(bkStart)
				tm.BackoffUs += slept.Microseconds()
				s.phaseLat[phaseBackoff].Record(slept)
				rt.add(obs.SpanRetryBackoff, bkStart, slept, "",
					fmt.Sprintf("attempt %d", attempt), "")
			case <-r.Context().Done():
				t.Stop()
				logger.Info("route abandoned", "reason", "client gone during backoff", "err", r.Context().Err())
				br.Record(true)
				return routeOutcome{
					status:     http.StatusServiceUnavailable,
					errMsg:     fmt.Sprintf("client gone during backoff: %v", r.Context().Err()),
					clientGone: true,
				}
			}
		}
	}

	// The breaker watches service health, not query answers: engine errors
	// and engine-inflicted failure classes count against it, while
	// definitive protocol outcomes (delivered, dead-end, truncated) count
	// as healthy service.
	stateBefore := br.State()
	br.Record(epErr != nil || Transient(res.Failure) || res.Failure == route.FailCancelled)
	if after := br.State(); after == BreakerOpen && stateBefore != BreakerOpen {
		logger.Warn("circuit breaker opened", "graph", graphName, "protocol", protoName,
			"opens", br.Opens())
	}

	if epErr != nil {
		logger.Error("route episode failed", "err", epErr, "attempts", attempts)
		return routeOutcome{status: http.StatusInternalServerError, errMsg: epErr.Error()}
	}
	logger.Info("route episode", "graph", graphName, "protocol", protoName,
		"s", q.S, "t", q.T, "success", res.Success, "failure", string(res.Failure),
		"moves", res.Moves, "attempts", attempts, "forwards", fwd.forwards,
		"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	tm.TotalUs = tm.QueueUs + time.Since(start).Microseconds()
	resp := RouteResponse{
		Graph:    graphName,
		Protocol: protoName,
		S:        q.S, T: q.T,
		Success:   res.Success,
		Failure:   string(res.Failure),
		Moves:     res.Moves,
		Unique:    res.Unique,
		Attempts:  attempts,
		Forwards:  fwd.forwards,
		Hedges:    fwd.hedges,
		Failovers: fwd.failovers,
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		Timings:   tm,
	}
	if q.IncludePath {
		// The episode's Path aliases the pooled state and is overwritten by
		// the next attempt or item; the response keeps its own copy.
		resp.Path = append([]int(nil), res.Path...)
	}
	return routeOutcome{status: StatusFor(res.Failure), resp: resp}
}

// spanErr classifies one engine episode's outcome for its local_route span:
// the error text, the failure class of an unsuccessful episode, or "" when
// the walk delivered.
func spanErr(err error, res *route.Result) string {
	switch {
	case err != nil:
		return err.Error()
	case res.Success:
		return ""
	default:
		return string(res.Failure)
	}
}

// validateItem checks one query against the resolved network, mirroring the
// request-level validation of POST /route; a non-empty result is the item's
// rejection message with its status.
func validateItem(nw *core.Network, protoName string, s, t int, specs []faults.Spec) (int, string) {
	if _, err := route.Lookup(protoName); err != nil {
		return http.StatusNotFound, err.Error()
	}
	if n := nw.LiveN(); s < 0 || s >= n || t < 0 || t >= n {
		return http.StatusBadRequest, fmt.Sprintf("vertex pair (%d, %d) out of range (n = %d)", s, t, n)
	}
	if _, err := faults.NewPlan(0, specs...); err != nil {
		return http.StatusBadRequest, err.Error()
	}
	return 0, ""
}

// handleRouteBatch serves POST /route/batch: one admission slot for the
// whole batch, items answered sequentially on that worker under one shared
// request deadline, per-item breaker and retry semantics. Item failures are
// per-item statuses in the body; the envelope is 200 whenever the batch was
// served at all.
func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request) {
	logger := obs.Logger(r.Context())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	if !s.beginRequest() {
		logger.Info("batch rejected", "reason", "draining")
		writeError(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, "server draining")
		return
	}
	defer s.inflight.Done()

	var req BatchRouteRequest
	if !decodeBody(w, r, maxRouteBody+int64(s.cfg.MaxBatch)*maxBatchItemBody, &req) {
		return
	}
	graphName := req.Graph
	if graphName == "" {
		graphName = DefaultGraph
	}
	nw, ok := s.Network(graphName)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "unknown graph %q (installed: %s)",
			graphName, strings.Join(s.GraphNames(), ", "))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, 0, "empty batch")
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, 0, "batch of %d items exceeds the limit of %d",
			len(req.Items), s.cfg.MaxBatch)
		return
	}

	// One distributed trace covers the whole batch: the queue wait is shared
	// (one admission slot), items contribute their own phase spans.
	rt := s.startEntryTrace(r.Context())
	defer func() { rt.finish("") }()

	// Admission: the whole batch is one unit of work — one slot, shed as one.
	qStart := time.Now()
	if err := s.pool.Acquire(r.Context()); err != nil {
		if err == ErrOverloaded {
			rt.finish("shed")
			logger.Warn("batch shed", "reason", "overloaded",
				"items", len(req.Items), "inflight", s.pool.InFlight(), "waiting", s.pool.Waiting())
			writeError(w, http.StatusTooManyRequests, s.cfg.RetryAfter, "overloaded: %d in flight, %d queued",
				s.pool.InFlight(), s.pool.Waiting())
			return
		}
		rt.finish("cancelled while queued")
		logger.Info("batch rejected", "reason", "cancelled while queued", "err", err)
		writeError(w, http.StatusServiceUnavailable, 0, "cancelled while queued: %v", err)
		return
	}
	defer s.pool.Release()
	queued := time.Since(qStart)
	s.phaseLat[phaseQueue].Record(queued)
	rt.add(obs.SpanQueueWait, qStart, queued, "", "", "")
	logger.Debug("batch admitted", "graph", graphName, "items", len(req.Items),
		"inflight", s.pool.InFlight(), "waiting", s.pool.Waiting())

	es := episodePool.Get().(*episodeState)
	defer episodePool.Put(es)

	start := time.Now()
	deadline := start.Add(s.cfg.RequestTimeout)
	results := make([]BatchItemResult, len(req.Items))
	clientGone := false
	for i, item := range req.Items {
		protoName := core.Protocol(item.Protocol).String() // "" = greedy
		results[i].S, results[i].T = item.S, item.T
		if clientGone {
			results[i].Status = http.StatusServiceUnavailable
			results[i].Error = "client gone, batch abandoned"
			continue
		}
		if status, msg := validateItem(nw, protoName, item.S, item.T, item.Faults); status != 0 {
			results[i].Status = status
			results[i].Error = msg
			continue
		}
		out := s.routeOne(r, nw, graphName, RouteRequest{
			Protocol: protoName,
			S:        item.S, T: item.T,
			Faults:      item.Faults,
			FaultSeed:   item.FaultSeed,
			IncludePath: item.IncludePath,
		}, deadline, es, rt, queued)
		if out.errMsg != "" {
			results[i].Status = out.status
			results[i].Error = out.errMsg
			results[i].RetryAfterMs = out.retryAfter.Milliseconds()
			clientGone = out.clientGone
			continue
		}
		results[i] = BatchItemResult{
			Status:   out.status,
			Protocol: out.resp.Protocol,
			S:        out.resp.S, T: out.resp.T,
			Success:   out.resp.Success,
			Failure:   out.resp.Failure,
			Moves:     out.resp.Moves,
			Unique:    out.resp.Unique,
			Path:      out.resp.Path,
			Attempts:  out.resp.Attempts,
			Forwards:  out.resp.Forwards,
			Hedges:    out.resp.Hedges,
			Failovers: out.resp.Failovers,
			ElapsedMs: out.resp.ElapsedMs,
			Timings:   out.resp.Timings,
		}
	}
	writeJSON(w, http.StatusOK, BatchRouteResponse{
		Graph:     graphName,
		Items:     results,
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
	})
}
