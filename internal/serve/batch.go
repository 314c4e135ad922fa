package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/xrand"
)

// This file is the routing API: POST /route/batch answers many queries under
// one admission slot, and POST /route is a batch of one — both run through
// one prelude (serveRouting) and routeOne, the single retry/breaker/budget
// core, over the worker slot's episodeState whose buffers are reused across
// every attempt and every item of a request.

// episodeState is one worker's routing state: the scratch buffers, the
// Result every engine attempt builds into (core.RouteEpisodeInto) and the one
// a sharded walk's local continuations build into. A request — a whole batch
// — threads its worker slot's state (Pool.Acquire) through all its episodes,
// and a hop stream keeps one for its lifetime.
type episodeState struct {
	sc    route.Scratch
	out   route.Result
	local route.Result
}

// routeOutcome is what one admitted query resolves to: its batch item — a
// rejection (Error set) or a routed episode — plus what the wire does not
// carry. retryAfter is the exact Retry-After of a rejection; clientGone
// reports that the client departed during retry backoff — the caller stops
// processing further items, there is nobody left to answer.
type routeOutcome struct {
	BatchItemResult
	retryAfter time.Duration
	clientGone bool
}

// rejected is the outcome of a query answered with an error instead of an
// episode; like any batch item it echoes its endpoints.
func rejected(q RouteRequest, status int, msg string, retryAfter time.Duration) routeOutcome {
	item := BatchItemResult{Status: status, Error: msg, RetryAfterMs: retryAfter.Milliseconds(), RouteResponse: RouteResponse{S: q.S, T: q.T}}
	return routeOutcome{BatchItemResult: item, retryAfter: retryAfter}
}

// routeOne runs item i of admitted request a, a validated routing query:
// breaker gate, then budgeted engine episodes with transient-failure retries
// under the caller's deadline, drawing under drawKey(a.key, i). It is the
// shared core of POST /route (item 0) and POST /route/batch. a's trace (nil
// when untraced) records the query, and a's queue wait is repeated into the
// query's Timings.
func (s *Server) routeOne(ctx context.Context, a admission, i int, q RouteRequest, deadline time.Time, es *episodeState) routeOutcome {
	nw, graphName, rt := a.nw, a.graphName, a.rt
	protoName := q.Protocol
	tm := &Timings{QueueUs: a.queued.Microseconds()}

	// Circuit breaker: fail fast while this (graph, protocol) is unhealthy.
	// A query with its own fault plan neither consults nor feeds it (br
	// stays nil): what its plan inflicts says nothing of the service.
	var br *Breaker
	if len(q.Faults) == 0 {
		br = s.routeBreakers.get(graphName, protoName)
		if retryIn, err := br.Allow(); err != nil {
			rt.add(obs.SpanBreaker, time.Now(), 0, "", graphName+"/"+protoName, "open")
			s.logger.WarnContext(ctx, "route rejected", "reason", "breaker open",
				"graph", graphName, "protocol", protoName, "retry_in_ms", retryIn.Milliseconds())
			return rejected(q, http.StatusServiceUnavailable,
				fmt.Sprintf("circuit breaker open for %s/%s", graphName, protoName), retryIn)
		}
	}

	key := drawKey(a.key, i)
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
	clustered := s.clusterEligible(nw)
	for attempt := 1; ; attempt++ {
		attempts = attempt
		remaining := time.Until(deadline)
		if remaining <= 0 {
			res.FailAtSource(q.S, route.FailDeadline)
			break
		}
		var plan *faults.Plan
		if len(q.models) > 0 {
			// The models validation built, seeded by fault_seed (0: the item
			// key) salted per attempt: transient fault draws and seeded
			// crash sets (crash-uniform) re-roll on retry, which is what
			// makes crashed-target retryable under such a plan.
			plan = &faults.Plan{Seed: xrand.Hash64(cmp.Or(q.FaultSeed, key), uint64(attempt)), Models: q.models}
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
			// Sharded path: each segment a core episode over one shard's
			// mask, each exit forwarded to the owning peer, the stitched
			// result recorded as one engine episode. An episode core will
			// not walk on one shard routes the whole graph here instead.
			fwd, epErr = s.clusterRoute(ctx, nw, graphName, key, epCfg, es, rt, tm)
			clustered = !errors.Is(epErr, core.ErrMaskUnsupported)
		}
		if !clustered {
			epErr = s.engineRoute(nw, epCfg, &es.sc, res, rt, tm, faultDetail)
		}
		if epErr != nil || res.Success || !Transient(res.Failure, plan) {
			break
		}
		if attempt >= s.cfg.Retry.MaxAttempts {
			break
		}
		// Back off before the next attempt, but never past the request
		// deadline or the client's departure.
		s.retries.Add(1)
		wait, ok := s.backoff(ctx, key, attempt, deadline, "attempt", rt, tm)
		s.logger.InfoContext(ctx, "route retrying", "attempt", attempt, "failure", string(res.Failure),
			"backoff_ms", wait.Milliseconds())
		if !ok {
			s.logger.InfoContext(ctx, "route abandoned", "reason", "client gone during backoff", "err", ctx.Err())
			if br != nil {
				br.Record(true)
			}
			out := rejected(q, http.StatusServiceUnavailable,
				fmt.Sprintf("client gone during backoff: %v", ctx.Err()), 0)
			out.clientGone = true
			return out
		}
	}

	// The breaker watches service health, not query answers: engine errors
	// and engine-inflicted failure classes count against it, while
	// definitive protocol outcomes (delivered, dead-end, truncated) count
	// as healthy service.
	if br != nil {
		stateBefore := br.State()
		br.Record(epErr != nil || Transient(res.Failure, nil) || res.Failure == route.FailCancelled)
		if after := br.State(); after == BreakerOpen && stateBefore != BreakerOpen {
			s.logger.WarnContext(ctx, "circuit breaker opened", "graph", graphName, "protocol", protoName,
				"opens", br.Opens())
		}
	}

	if epErr != nil {
		s.logger.ErrorContext(ctx, "route episode failed", "err", epErr, "attempts", attempts)
		return rejected(q, http.StatusInternalServerError, epErr.Error(), 0)
	}
	// The episode record is kept at Info when its answer is not a 200 or
	// took a retry; a delivered first attempt is routine, at Debug.
	status := StatusFor(res.Failure)
	level := slog.LevelDebug
	if status != http.StatusOK || attempts > 1 {
		level = slog.LevelInfo
	}
	if s.logger.Enabled(ctx, level) {
		s.logger.Log(ctx, level, "route episode", "graph", graphName, "protocol", protoName,
			"s", q.S, "t", q.T, "success", res.Success, "failure", string(res.Failure),
			"moves", res.Moves, "attempts", attempts, "forwards", fwd.forwards,
			"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	}
	tm.TotalUs = tm.QueueUs + time.Since(start).Microseconds()
	out := routeOutcome{BatchItemResult: BatchItemResult{Status: status, RouteResponse: RouteResponse{
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
	}}}
	if q.IncludePath {
		// The episode's Path aliases the pooled state and is overwritten by
		// the next attempt or item; the response keeps its own copy.
		out.Path = append([]int(nil), res.Path...)
	}
	return out
}

// engineRoute is each engine episode this daemon routes, whole or one
// shard's segment: core routes it (a traced one replays its walk into a hop
// collector once it ends) and it is booked as route time on tm, on the route
// phase histogram and as a local_route span labelled detail. A mask core
// refuses (core.ErrMaskUnsupported) routed nothing and is booked nowhere.
func (s *Server) engineRoute(nw *core.Network, cfg core.EpisodeConfig, sc *route.Scratch, out *route.Result, rt *reqTrace, tm *Timings, detail string) error {
	var hc *obs.HopCollector
	if rt != nil {
		hc = &obs.HopCollector{}
		cfg.Observer = hc
	}
	start := time.Now()
	err := nw.RouteEpisodeInto(cfg, sc, out)
	if errors.Is(err, core.ErrMaskUnsupported) {
		return err
	}
	d := time.Since(start)
	tm.RouteUs += d.Microseconds()
	s.phaseLat[phaseRoute].Record(d)
	errMsg := string(out.Failure) // "" when delivered or unclassified
	if err != nil {
		errMsg = err.Error()
	}
	rt.localRoute(start, d, detail, errMsg, hc)
	return err
}

// validateItem is the one validation of a routing query against the resolved
// network: POST /route runs it before the request takes a worker slot, POST
// /route/batch on each item once the batch holds one. It builds the query's
// fault models, once for all its attempts; a non-zero status rejects the
// query with the message.
func validateItem(nw *core.Network, protoName string, s, t int, specs []faults.Spec) ([]faults.Model, int, string) {
	if _, err := route.Lookup(protoName); err != nil {
		return nil, http.StatusNotFound, err.Error()
	}
	if n := nw.LiveN(); s < 0 || s >= n || t < 0 || t >= n {
		return nil, http.StatusBadRequest, fmt.Sprintf("vertex pair (%d, %d) out of range (n = %d)", s, t, n)
	}
	if len(specs) == 0 {
		return nil, 0, ""
	}
	plan, err := faults.NewPlan(0, specs...)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	return plan.Models, 0, ""
}

// routingRequest is a decoded POST /route or POST /route/batch body, as the
// prelude the two endpoints share sees it.
type routingRequest interface {
	// graphName is the graph slot the request routes on.
	graphName() string
	// check rejects what cannot be served on nw before it takes a worker
	// slot: a non-zero status with its message.
	check(nw *core.Network) (int, string)
	// logArgs are the attributes its shed and admitted log lines carry.
	logArgs() []any
}

func (q *RouteRequest) graphName() string { return graphOrDefault(q.Graph) }

func (q *RouteRequest) check(nw *core.Network) (status int, msg string) {
	q.models, status, msg = validateItem(nw, core.Protocol(q.Protocol).String(), q.S, q.T, q.Faults)
	return status, msg
}

func (q *RouteRequest) logArgs() []any {
	return []any{"protocol", core.Protocol(q.Protocol).String(), "s", q.S, "t", q.T}
}

func (b *BatchRouteRequest) graphName() string { return graphOrDefault(b.Graph) }

func (b *BatchRouteRequest) check(*core.Network) (int, string) {
	if len(b.Items) == 0 {
		return http.StatusBadRequest, "empty batch"
	}
	if len(b.Items) > maxBatch {
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d items exceeds the limit of %d",
			len(b.Items), maxBatch)
	}
	return 0, ""
}

func (b *BatchRouteRequest) logArgs() []any { return []any{"items", len(b.Items)} }

// admission is a routing request past the prelude: the network it routes on
// and that slot's name, the key of its draws, its distributed trace (nil when
// untraced) and the time it waited for its worker slot.
type admission struct {
	nw        *core.Network
	graphName string
	key       uint64
	rt        *reqTrace
	queued    time.Duration
}

// drawKey keys part i of what key keys — item i of a request (POST /route is
// item 0) under admission.key, the hash of the request id, or an item's i-th
// boundary crossing under the item's key — so a request replays from its id.
func drawKey(key uint64, i int) uint64 { return xrand.Hash64(key, uint64(i)) }

// serveRouting is the one prelude of POST /route and POST /route/batch:
// method, drain gate, a body of at most limit bytes decoded into req, graph
// lookup, req's own check, then admission — shed when the pool is full,
// rejected when the client leaves while queued — and the queue span. kind
// ("route" or "batch") opens its log lines. run serves the admitted request
// on its worker slot, in that slot's episode state; the request's trace
// finishes clean when run returns unless run finished it first.
func (s *Server) serveRouting(w http.ResponseWriter, r *http.Request, kind string, limit int64, req routingRequest, run func(a admission, es *episodeState)) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	// Count the request as in-flight from here: Drain waits for the whole
	// handler, so an admitted episode always gets to write its response.
	if !s.beginRequest() {
		s.logger.InfoContext(ctx, kind+" rejected", "reason", "draining")
		writeError(w, http.StatusServiceUnavailable, retryAfterHint, "server draining")
		return
	}
	defer s.inflight.Done()

	if !decodeBody(w, r, limit, req) {
		return
	}
	a := admission{graphName: req.graphName(), key: xrand.HashString(obs.RequestID(ctx))}
	var ok bool
	if a.nw, ok = s.Network(a.graphName); !ok {
		writeError(w, http.StatusNotFound, 0, "unknown graph %q (installed: %s)",
			a.graphName, strings.Join(s.GraphNames(), ", "))
		return
	}
	if status, msg := req.check(a.nw); status != 0 {
		writeError(w, status, 0, "%s", msg)
		return
	}

	// The distributed trace starts at admission: the queue wait is the first
	// phase of the request, and the sampling decision made here rides every
	// forwarded hop via the Traceparent header.
	a.rt = s.startEntryTrace(ctx)
	defer a.rt.finish("")

	// Admission: bounded concurrency, bounded queue, fast shedding. A batch
	// is one unit of work — one slot, shed as one.
	qStart := time.Now()
	es, err := s.pool.Acquire(ctx)
	if err != nil {
		if err == ErrOverloaded {
			a.rt.finish("shed")
			s.logger.WarnContext(ctx, kind+" shed", s.admissionArgs(req, "reason", "overloaded")...)
			writeError(w, http.StatusTooManyRequests, retryAfterHint, "overloaded: %d in flight, %d queued",
				s.pool.InFlight(), s.pool.Waiting())
			return
		}
		a.rt.finish("cancelled while queued")
		s.logger.InfoContext(ctx, kind+" rejected", "reason", "cancelled while queued", "err", err)
		writeError(w, http.StatusServiceUnavailable, 0, "cancelled while queued: %v", err)
		return
	}
	defer s.pool.Release(es)
	a.queued = time.Since(qStart)
	s.phaseLat[phaseQueue].Record(a.queued)
	a.rt.add(obs.SpanQueueWait, qStart, a.queued, "", "", "")
	if s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.DebugContext(ctx, kind+" admitted", s.admissionArgs(req, "graph", a.graphName)...)
	}

	run(a, es)
}

// admissionArgs are the attributes of an admission log line: lead, the
// request's own, then the pool's occupancy.
func (s *Server) admissionArgs(req routingRequest, lead ...any) []any {
	args := append(lead, req.logArgs()...)
	return append(args, "inflight", s.pool.InFlight(), "waiting", s.pool.Waiting())
}

// handleRoute serves POST /route: a batch of one whose query the prelude
// validates before it takes a worker slot; the item's status and body are
// the response's.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req RouteRequest
	s.serveRouting(w, r, "route", maxRouteBody, &req, func(a admission, es *episodeState) {
		req.Protocol = core.Protocol(req.Protocol).String() // "" = greedy
		out := s.routeOne(r.Context(), a, 0, req, time.Now().Add(s.cfg.RequestTimeout), es)
		a.rt.finish(out.Error)
		if out.Error != "" {
			writeError(w, out.Status, out.retryAfter, "%s", out.Error)
			return
		}
		out.Graph = a.graphName
		writeJSON(w, out.Status, out.RouteResponse)
	})
}

// handleRouteBatch serves POST /route/batch: one admission slot for the
// whole batch, items answered sequentially on that worker under one shared
// request deadline, per-item breaker and retry semantics. Item failures are
// per-item statuses in the body; the envelope is 200 whenever the batch was
// served at all.
func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRouteRequest
	s.serveRouting(w, r, "batch", maxRouteBody+maxBatch*maxBatchItemBody, &req, func(a admission, es *episodeState) {
		start := time.Now()
		deadline := start.Add(s.cfg.RequestTimeout)
		results := make([]BatchItemResult, len(req.Items))
		clientGone := false
		for i, item := range req.Items {
			protoName := core.Protocol(item.Protocol).String() // "" = greedy
			it := &results[i]
			it.S, it.T = item.S, item.T
			if clientGone {
				it.Status, it.Error = http.StatusServiceUnavailable, "client gone, batch abandoned"
				continue
			}
			models, status, msg := validateItem(a.nw, protoName, item.S, item.T, item.Faults)
			if status != 0 {
				it.Status, it.Error = status, msg
				continue
			}
			out := s.routeOne(r.Context(), a, i, RouteRequest{
				Protocol: protoName,
				S:        item.S, T: item.T,
				Faults:      item.Faults,
				FaultSeed:   item.FaultSeed,
				IncludePath: item.IncludePath,
				models:      models,
			}, deadline, es)
			*it = out.BatchItemResult
			clientGone = out.clientGone
		}
		writeJSON(w, http.StatusOK, BatchRouteResponse{
			Graph:     a.graphName,
			Items:     results,
			ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		})
	})
}
