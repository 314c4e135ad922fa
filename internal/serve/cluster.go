package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
)

// This file is the cluster half of the serving layer: when EnableCluster
// installs a shard map, eligible /route queries run the partial greedy
// router over the local shard and forward the continuation to the owning
// peer as one frame on a persistent hop stream (hopwire.go; the stream is an
// upgrade of POST /cluster/hop). Forwarding reuses the daemon's resilience
// vocabulary — a circuit breaker per (peer, graph), the RetryPolicy's
// backoff, the request deadline — and a forward that cannot be completed
// comes back as the classified shard-unreachable failure, never a hang:
// the cluster degrades to "that shard's vertices are unreachable" while
// every shard-local route keeps working.

// maxHopDepth caps hop chaining. Greedy never revisits a shard (the walk is
// strictly objective-increasing), so a legitimate chain is bounded by the
// shard count; the cap only exists to turn a routing bug into a classified
// truncated episode instead of a forwarding loop.
const maxHopDepth = 16

// peerKey identifies one per-(peer, graph) forward breaker. These are
// deliberately separate from the (graph, protocol) request breakers: a dead
// peer must fail its own forwards fast without poisoning shard-local
// routing on the same graph.
type peerKey struct{ peer, graph string }

// EnableCluster installs the shard map and starts answering /cluster/hop
// and /cluster/gossip. client carries the cluster's HTTP calls — journal
// ships, segment pulls, metrics federation; hops ride their own streams —
// and may be nil (a default client; deadlines bound every call). Call before
// serving — the field is not synchronized against in-flight requests.
func (s *Server) EnableCluster(node *cluster.Node, client *http.Client) {
	if client == nil {
		client = &http.Client{}
	}
	s.clusterNode = node
	s.clusterClient = client
}

// ClusterNode returns the installed shard map (nil on a single-node
// daemon).
func (s *Server) ClusterNode() *cluster.Node { return s.clusterNode }

// PeerBreaker exposes the (peer, graph) forward breaker, creating it on
// first use like the forward path does.
func (s *Server) PeerBreaker(peer, graph string) *Breaker {
	if graph == "" {
		graph = DefaultGraph
	}
	return s.peerBreaker(peer, graph)
}

func (s *Server) peerBreaker(peer, graph string) *Breaker {
	key := peerKey{peer, graph}
	s.peerBreakerMu.Lock()
	defer s.peerBreakerMu.Unlock()
	b, ok := s.peerBreakers[key]
	if !ok {
		b = NewBreaker(s.cfg.Breaker)
		s.peerBreakers[key] = b
	}
	return b
}

// clusterEligible reports whether one validated query can take the sharded
// path: cluster mode on, pure greedy under the standard objective, no fault
// plan, the resolved snapshot is the one the shard map was built over
// (pointer equality — after a hot swap the mask no longer applies and the
// query falls back to local full-graph routing), and the slot carries no
// live overlay — the shard masks are bound to the immutable base, so a
// replicated live slot routes locally over its full overlay instead.
func (s *Server) clusterEligible(nw *core.Network, protoName string, q RouteRequest) bool {
	node := s.clusterNode
	return node != nil &&
		protoName == "greedy" &&
		nw.StandardPhi &&
		len(q.Faults) == 0 &&
		nw.Graph == node.Graph() &&
		nw.LiveOverlay() == nil
}

// routeFwd is the forwarding summary of one sharded episode attempt, as
// reported in RouteResponse: boundary crossings, hedges fired and failovers
// won across the whole hop chain.
type routeFwd struct {
	forwards  int
	hedges    int
	failovers int
}

// clusterRoute runs one attempt of a sharded greedy episode into es.out.
// Exactly one engine episode is recorded here, at the entry daemon, with the
// merged result — hop receivers record nothing, so cluster-wide counters sum
// honestly. Returns the attempt's forwarding summary.
func (s *Server) clusterRoute(ctx context.Context, graphName string, sv, tv int, deadline time.Time, es *episodeState, rt *reqTrace, tm *Timings) routeFwd {
	start := time.Now()
	fwd := s.routeSegment(ctx, graphName, sv, tv, deadline, 1, es, rt, tm)
	s.counters.Record(es.out, time.Since(start))
	return fwd
}

// routeSegment is the step the entry daemon and every hop receiver share:
// the local segment from `from` toward t via the partial router, then — if
// the walk crossed the shard boundary — the continuation via forwardHop at
// hop depth fwdDepth, stitched back into es.out. The merged result is
// bit-identical to single-node GreedyCSR whenever the owning peers answered;
// a failed forward classifies the episode as shard-unreachable.
func (s *Server) routeSegment(ctx context.Context, graphName string, from, t int, deadline time.Time, fwdDepth int, es *episodeState, rt *reqTrace, tm *Timings) routeFwd {
	node := s.clusterNode
	res := &es.out
	b := route.Budget{MaxScans: s.cfg.MaxHops, Deadline: deadline}
	start := time.Now()
	exit := route.GreedyCSRPartial(node.Graph(), t, from, node.OwnedMask(), b, &es.sc, res)
	segDur := time.Since(start)
	tm.RouteUs += segDur.Microseconds()
	s.phaseLat[phaseRoute].Record(segDur)
	// A traced segment's span carries the hops of this daemon's part of the
	// walk, replayed off the clock; es.out holds only the segment until the
	// continuation is merged below.
	var hc *obs.HopCollector
	if rt != nil {
		hc = &obs.HopCollector{}
		g := node.Graph()
		route.Observe(g, route.NewStandardUncached(g, t), *res, 0, hc)
	}
	rt.localRoute(start, segDur, "partial", "", hc)
	if exit < 0 {
		return routeFwd{}
	}
	fwdStart := time.Now()
	hop, hs, ok := s.forwardHop(ctx, graphName, exit, t, deadline, fwdDepth, rt, tm)
	tm.ForwardUs += time.Since(fwdStart).Microseconds()
	fwd := routeFwd{forwards: 1, hedges: hs.hedges + hop.Hedges, failovers: hs.failovers + hop.Failovers}
	if ok {
		mergeHop(res, hop)
		fwd.forwards += hop.Forwards
	} else {
		s.shardUnreachable.Add(1)
		res.Success = false
		res.Failure = route.FailShardUnreachable
		res.Stuck = -1
		res.Unique = len(res.Path)
		obs.Logger(ctx).Warn("shard unreachable", "graph", graphName,
			"exit_vertex", exit, "t", t)
	}
	return fwd
}

// mergeHop stitches a hop continuation onto the local segment. The
// continuation starts at the exit vertex the segment already ends with, so
// its first vertex is dropped; greedy is strictly objective-increasing, so
// the merged path has no revisits and Unique stays len(Path).
func mergeHop(res *route.Result, hop HopResponse) {
	if len(hop.Path) > 1 {
		res.Path = append(res.Path, hop.Path[1:]...)
	}
	res.Moves += hop.Moves
	res.Unique = len(res.Path)
	res.Success = hop.Success
	res.Failure = route.Failure(hop.Failure)
	res.Stuck = hop.Stuck
	res.Truncated = hop.Failure == string(route.FailTruncated)
}

// hopStats counts the forwarding decisions made locally for one forward:
// hedged second attempts fired and successes obtained at a replica other
// than the first choice. Downstream hops report their own counts inside
// HopResponse; the entry daemon sums both for the episode totals.
type hopStats struct {
	hedges    int
	failovers int
}

// forwardHop hands the walk at vertex `from` to the replica set owning it
// and returns the classified continuation. Candidates come from OwnersOf in
// deterministic failover order (alive before suspect, then replica id);
// open-breaker peers are skipped. The first candidate is posted immediately;
// if a hedge policy is configured and the candidate has not answered after
// the deterministic hedge delay, a second attempt fires at the next
// candidate and the first 200 wins — the loser is cancelled via its context
// and records nothing (slow is not a strike). A candidate that fails on its
// own counts against its (peer, graph) breaker, strikes the membership
// failure detector, and fails over to the next candidate immediately.
//
// When every candidate of a pass failed, retryable failures (transport
// errors, 5xx) back off and retry under the request deadline with a fresh
// candidate list; pure-4xx passes are permanent. ok is false when no answer
// could be obtained — no routable owner, breakers open, candidates and
// retries exhausted, deadline spent — and the caller classifies the episode
// shard-unreachable.
func (s *Server) forwardHop(ctx context.Context, graphName string, from, t int, deadline time.Time, depth int, rt *reqTrace, tm *Timings) (HopResponse, hopStats, bool) {
	logger := obs.Logger(ctx)
	node := s.clusterNode
	var stats hopStats
	for attempt := 1; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return HopResponse{}, stats, false
		}
		owners := node.OwnersOf(from)
		if len(owners) == 0 {
			logger.Warn("forward failed", "reason", "no routable owner", "vertex", from)
			return HopResponse{}, stats, false
		}
		cands := owners[:0:0]
		for _, p := range owners {
			if _, err := s.peerBreaker(p.ID, graphName).Allow(); err == nil {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			logger.Warn("forward failed", "reason", "peer breakers open", "vertex", from, "replicas", len(owners))
			return HopResponse{}, stats, false
		}
		resp, retryable, ok := s.tryReplicas(ctx, graphName, from, t, deadline, depth, cands, &stats, rt, tm)
		if ok {
			return resp, stats, true
		}
		if !retryable || attempt >= s.cfg.Retry.MaxAttempts {
			return HopResponse{}, stats, false
		}
		wait := s.cfg.Retry.Backoff(hash64(uint64(from), uint64(t)), attempt)
		if rem := time.Until(deadline); wait > rem {
			wait = rem
		}
		if wait > 0 {
			bkStart := time.Now()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
				slept := time.Since(bkStart)
				tm.BackoffUs += slept.Microseconds()
				s.phaseLat[phaseBackoff].Record(slept)
				rt.add(obs.SpanRetryBackoff, bkStart, slept, "",
					fmt.Sprintf("forward attempt %d", attempt), "")
			case <-ctx.Done():
				timer.Stop()
				return HopResponse{}, stats, false
			}
		}
	}
}

// hopAttempt is one launched attempt of a failover pass: what the pass keeps
// about it, then the answer and the round-trip wall time.
type hopAttempt struct {
	idx    int
	spanID string
	start  time.Time
	cancel context.CancelFunc
	ended  bool

	resp   HopResponse
	status int
	err    error
	dur    time.Duration
}

// tryReplicas runs one failover pass over the candidate replicas: try the
// first, hedge onto the second after the deterministic delay, fail over to
// the next on observed failure, first 200 wins. retryable reports whether at
// least one failure was transient (transport error or 5xx) — a pure-4xx pass
// will not improve on retry.
//
// Every attempt is one hopRPC on a goroutine and a context of its own, so
// that a hedge can race it; the losers of a won race are cancelled and record
// nothing (slow is not a strike).
//
// Tracing: each launched attempt gets a forward_rpc span whose id is
// allocated serially in the select loop (deterministic despite racing RPCs)
// and rides the frame as the traceparent, so the receiving daemon's hop root
// parents onto it. A cancelled loser still publishes its span (err
// "cancelled") — the peer may have served the hop and recorded children under
// that id, and a published parent keeps stitched trees free of orphans.
func (s *Server) tryReplicas(ctx context.Context, graphName string, from, t int, deadline time.Time, depth int, cands []cluster.Peer, stats *hopStats, rt *reqTrace, tm *Timings) (HopResponse, bool, bool) {
	logger := obs.Logger(ctx)
	node := s.clusterNode
	req := HopRequest{Graph: graphName, S: from, T: t, Depth: depth}

	results := make(chan *hopAttempt, len(cands))
	atts := make([]hopAttempt, len(cands))
	passStart := time.Now()
	// The forward_rpc span label, built only when spans are recorded: rt's
	// methods are nil-safe, but their arguments are evaluated before the call.
	var label string
	if rt != nil {
		label = fmt.Sprintf("hop depth=%d", depth)
	}
	defer func() {
		// Cancel whatever is still in flight — the losers of a won race.
		// Their goroutines drain into the buffered channel and their
		// cancellation errors are never recorded against breaker or
		// membership. Their spans are published as cancelled so downstream
		// hop spans keep a recorded parent.
		for i := range atts {
			a := &atts[i]
			if a.cancel != nil {
				a.cancel()
				if !a.ended {
					rt.end(a.spanID, obs.SpanForwardRPC, a.start, time.Since(a.start), cands[i].ID, label, "cancelled")
				}
			}
		}
	}()
	hedgedIdx := -1 // candidate index launched by the hedge timer
	launch := func(i int) {
		a := &atts[i]
		var actx context.Context
		actx, a.cancel = context.WithCancel(ctx)
		a.idx, a.spanID, a.start = i, rt.allocID(), time.Now()
		tp := rt.traceparent(a.spanID)
		s.forwards.Add(1)
		go func() {
			a.resp, a.status, a.err = s.hopRPC(actx, cands[i].ID, req, deadline, tp)
			a.dur = time.Since(a.start)
			results <- a
		}()
	}

	launch(0)
	next, pending := 1, 1
	var hedgeC <-chan time.Time
	hedge := cluster.HedgePolicy{After: s.cfg.HedgeAfter, Seed: s.cfg.Retry.Seed}
	if hedge.Enabled() && next < len(cands) {
		c, stop := s.hedgeTimer(hedge.Delay(hash64(uint64(from), uint64(t), uint64(depth))))
		defer stop()
		hedgeC = c
	}

	retryable := false
	for pending > 0 {
		select {
		case <-ctx.Done():
			return HopResponse{}, false, false
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				hedgedIdx = next
				stats.hedges++
				s.hedges.Add(1)
				hedgeWait := time.Since(passStart)
				tm.HedgeUs += hedgeWait.Microseconds()
				s.phaseLat[phaseHedge].Record(hedgeWait)
				rt.add(obs.SpanHedgeWait, passStart, hedgeWait,
					cands[next].ID, fmt.Sprintf("hedge idx=%d", next), "")
				logger.Debug("forward hedged", "vertex", from,
					"first", cands[0].ID, "hedge", cands[next].ID)
				launch(next)
				next++
				pending++
			}
		case a := <-results:
			pending--
			peer := cands[a.idx]
			pb := s.peerBreaker(peer.ID, graphName)
			s.phaseLat[phaseForward].Record(a.dur)
			a.ended = true
			if a.err == nil && a.status == http.StatusOK {
				rt.end(a.spanID, obs.SpanForwardRPC, a.start, a.dur, peer.ID, label, "")
				pb.Record(false)
				node.Members().ReportSuccess(peer.ID)
				switch {
				case a.idx == hedgedIdx:
					s.hedgeWins.Add(1)
					s.hedgeWinLat.Record(a.dur)
				case a.idx > 0:
					stats.failovers++
					s.failovers.Add(1)
					s.failoverLat.Record(time.Since(passStart))
				}
				return a.resp, false, true
			}
			s.forwardFails.Add(1)
			pb.Record(true)
			node.Members().ReportFailure(peer.ID)
			var errMsg string
			if a.err != nil {
				retryable = true
				errMsg = a.err.Error()
				logger.Warn("forward failed", "peer", peer.ID, "err", a.err)
			} else {
				errMsg = fmt.Sprintf("status %d", a.status)
				logger.Warn("forward failed", "peer", peer.ID, "status", a.status)
				if a.status < 400 || a.status >= 500 {
					retryable = true
				}
			}
			rt.end(a.spanID, obs.SpanForwardRPC, a.start, a.dur, peer.ID, label, errMsg)
			if next < len(cands) {
				launch(next)
				next++
				pending++
			}
		}
	}
	return HopResponse{}, retryable, false
}

// handleClusterHop serves POST /cluster/hop. With Upgrade: smallworld-hop/1
// the connection becomes a hop stream (serveHopStream) — what peers use.
// Without it, it is the JSON front-end of serveHop: one HopRequest body, one
// HopResponse, the documented contract and the reference the frame codec is
// tested against.
func (s *Server) handleClusterHop(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.clusterNode == nil:
		writeError(w, http.StatusNotFound, 0, "not clustered")
	case r.Method != http.MethodPost:
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
	case r.Header.Get("Upgrade") == hopProto:
		s.serveHopStream(w, r)
	default:
		var req HopRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
			return
		}
		es := episodePool.Get().(*episodeState)
		defer episodePool.Put(es)
		budget := time.Duration(req.DeadlineMs) * time.Millisecond
		resp, status, msg := s.serveHop(r.Context(), req, budget, r.Header.Get(obs.TraceHeader), es)
		switch status {
		case http.StatusOK:
			writeJSON(w, status, resp)
		case http.StatusServiceUnavailable:
			writeError(w, status, s.cfg.RetryAfter, "%s", msg)
		default:
			writeError(w, status, 0, "%s", msg)
		}
	}
}

// serveHop answers one hop, whichever front-end it arrived on: route the
// continuation of a peer's greedy walk over the local shard into es,
// forwarding again if it crosses out. budget is the sender's remaining
// request budget (0 = none; the hop routes under min(budget, RequestTimeout))
// and tp its traceparent. Hops bypass the admission pool — they are the
// continuation of a request already admitted at the entry daemon, and waiting
// for a slot here could deadlock two shards forwarding into each other — but
// they respect draining. Any classified outcome is 200, with resp.Path
// aliasing es; any other status comes with its error text. The entry daemon
// records the episode, so this touches no engine counters.
func (s *Server) serveHop(ctx context.Context, req HopRequest, budget time.Duration, tp string, es *episodeState) (resp HopResponse, status int, msg string) {
	logger := obs.Logger(ctx)
	if !s.beginRequest() {
		return resp, http.StatusServiceUnavailable, "server draining"
	}
	defer s.inflight.Done()
	graphName := req.Graph
	if graphName == "" {
		graphName = DefaultGraph
	}
	nw, ok := s.Network(graphName)
	switch {
	case !ok:
		return resp, http.StatusNotFound, fmt.Sprintf("unknown graph %q", graphName)
	case nw.Graph != s.clusterNode.Graph():
		return resp, http.StatusConflict, fmt.Sprintf("graph %q is not the clustered snapshot", graphName)
	case nw.LiveOverlay() != nil:
		return resp, http.StatusConflict, fmt.Sprintf("graph %q carries a live overlay; hops route over the immutable base only", graphName)
	case req.S < 0 || req.S >= nw.Graph.N() || req.T < 0 || req.T >= nw.Graph.N():
		return resp, http.StatusBadRequest, fmt.Sprintf("vertex pair (%d, %d) out of range (n = %d)", req.S, req.T, nw.Graph.N())
	}
	s.hopsServed.Add(1)

	// The forwarding daemon records its own side of the trace: a hop root
	// parented on the caller's forward_rpc span (adopted from the
	// traceparent), with this shard's local segment and onward forwards as
	// children — without it, stitched trees would show the entry daemon only.
	rt := s.startHopTrace(tp, "")
	if rt != nil {
		rt.rootDetail = fmt.Sprintf("depth=%d", req.Depth)
	}
	defer func() { rt.finish("") }()

	deadline := time.Now().Add(s.cfg.RequestTimeout)
	if budget > 0 {
		if d := time.Now().Add(budget); d.Before(deadline) {
			deadline = d
		}
	}
	res := &es.out
	if req.Depth > maxHopDepth {
		rt.finish("truncated")
		logger.Warn("hop chain truncated", "depth", req.Depth, "s", req.S, "t", req.T)
		res.Path = append(res.Path[:0], req.S)
		return HopResponse{Failure: string(route.FailTruncated), Stuck: -1, Path: res.Path}, http.StatusOK, ""
	}

	// The hop's Timings stay local: HopResponse carries no attribution (the
	// entry daemon owns the merged episode), but the per-phase histograms and
	// spans still need the accumulator the segment threads through.
	fwd := s.routeSegment(ctx, graphName, req.S, req.T, deadline, req.Depth+1, es, rt, &Timings{})
	resp = HopResponse{
		Success: res.Success, Failure: string(res.Failure), Stuck: res.Stuck,
		Path: res.Path, Moves: res.Moves,
		Forwards: fwd.forwards, Hedges: fwd.hedges, Failovers: fwd.failovers,
	}
	logger.Debug("hop served", "s", req.S, "t", req.T, "depth", req.Depth,
		"success", resp.Success, "failure", resp.Failure, "forwards", resp.Forwards)
	return resp, http.StatusOK, ""
}

// handleClusterGossip serves POST /cluster/gossip: merge the sender and its
// relayed view into the membership and answer with ours — the pull half of
// push/pull. Gossip stays up while draining so peers observe the shutdown
// as liveness, not silence.
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	node := s.clusterNode
	if node == nil {
		writeError(w, http.StatusNotFound, 0, "not clustered")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	var req cluster.GossipRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return
	}
	view := node.Members().Receive(req.From, req.View)
	writeJSON(w, http.StatusOK, cluster.GossipResponse{Self: node.Self(), View: view})
}

// writeClusterMetrics emits the smallworld_cluster_* families (only called
// when cluster mode is on).
func (s *Server) writeClusterMetrics(p *obs.PromWriter) {
	node := s.clusterNode
	p.Family("smallworld_cluster_forwards_total", "counter", "Hop forwards attempted.")
	p.SampleInt("smallworld_cluster_forwards_total", nil, s.forwards.Load())
	p.Family("smallworld_cluster_forward_failures_total", "counter", "Hop forward attempts that failed (transport error, non-200, breaker open).")
	p.SampleInt("smallworld_cluster_forward_failures_total", nil, s.forwardFails.Load())
	p.Family("smallworld_cluster_shard_unreachable_total", "counter", "Episodes classified shard-unreachable at this daemon.")
	p.SampleInt("smallworld_cluster_shard_unreachable_total", nil, s.shardUnreachable.Load())
	p.Family("smallworld_cluster_hops_served_total", "counter", "POST /cluster/hop continuations served.")
	p.SampleInt("smallworld_cluster_hops_served_total", nil, s.hopsServed.Load())
	p.Family("smallworld_cluster_hedges_total", "counter", "Hedged second forward attempts fired.")
	p.SampleInt("smallworld_cluster_hedges_total", nil, s.hedges.Load())
	p.Family("smallworld_cluster_hedge_wins_total", "counter", "Hedged attempts whose response won the race.")
	p.SampleInt("smallworld_cluster_hedge_wins_total", nil, s.hedgeWins.Load())
	p.Family("smallworld_cluster_failovers_total", "counter", "Forwards that succeeded at a replica other than the first choice.")
	p.SampleInt("smallworld_cluster_failovers_total", nil, s.failovers.Load())
	p.Family("smallworld_cluster_gossip_rounds_total", "counter", "Gossip rounds ticked.")
	p.SampleInt("smallworld_cluster_gossip_rounds_total", nil, int64(node.Members().Round()))
	p.Family("smallworld_cluster_hedge_win_latency_seconds", "histogram", "Round-trip latency of hedged attempts that won their race.")
	s.hedgeWinLat.WriteHistogramSamples(p, "smallworld_cluster_hedge_win_latency_seconds", nil)
	p.Family("smallworld_cluster_failover_latency_seconds", "histogram", "Time from a forward pass's first attempt to a success at a non-first-choice replica.")
	s.failoverLat.WriteHistogramSamples(p, "smallworld_cluster_failover_latency_seconds", nil)
	s.hopMu.Lock()
	in := len(s.hopIn)
	s.hopMu.Unlock()
	p.Family("smallworld_cluster_hop_streams", "gauge", "Open hop streams: accepted (in) and dialled, idle or in use (out).")
	p.SampleInt("smallworld_cluster_hop_streams", []obs.Label{{Name: "dir", Value: "in"}}, int64(in))
	p.SampleInt("smallworld_cluster_hop_streams", []obs.Label{{Name: "dir", Value: "out"}}, s.hopStreamsOut.Load())
	p.Family("smallworld_cluster_hop_redials_total", "counter", "Forwards retried on a fresh dial because the reused stream was stale.")
	p.SampleInt("smallworld_cluster_hop_redials_total", nil, s.hopRedials.Load())

	counts := node.Members().CountByState()
	p.Family("smallworld_cluster_peers", "gauge", "Known peers by failure-detector state.")
	for _, st := range []cluster.PeerState{cluster.StateAlive, cluster.StateSuspect, cluster.StateDown} {
		p.SampleInt("smallworld_cluster_peers",
			[]obs.Label{{Name: "state", Value: st.String()}}, int64(counts[st]))
	}

	type pbSample struct {
		peer, graph string
		state       float64
		opens       int64
	}
	s.peerBreakerMu.Lock()
	samples := make([]pbSample, 0, len(s.peerBreakers))
	for key, b := range s.peerBreakers {
		samples = append(samples, pbSample{key.peer, key.graph, breakerStateValue(b.State()), b.Opens()})
	}
	s.peerBreakerMu.Unlock()
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].peer != samples[j].peer {
			return samples[i].peer < samples[j].peer
		}
		return samples[i].graph < samples[j].graph
	})
	p.Family("smallworld_cluster_peer_breaker_state", "gauge", "Forward breaker state per (peer, graph): 0 closed, 1 open, 2 half-open.")
	for _, b := range samples {
		p.Sample("smallworld_cluster_peer_breaker_state",
			[]obs.Label{{Name: "peer", Value: b.peer}, {Name: "graph", Value: b.graph}}, b.state)
	}
	p.Family("smallworld_cluster_peer_breaker_opens_total", "counter", "Cumulative forward breaker trips to open.")
	for _, b := range samples {
		p.SampleInt("smallworld_cluster_peer_breaker_opens_total",
			[]obs.Label{{Name: "peer", Value: b.peer}, {Name: "graph", Value: b.graph}}, b.opens)
	}
}

// clusterStats fills the cluster slice of ServeStats.
func (s *Server) clusterStats(st *ServeStats) {
	node := s.clusterNode
	if node == nil {
		return
	}
	st.Cluster = &ClusterStats{
		Self:             node.Self().ID,
		Shard:            node.Self().Shard,
		Replica:          node.Replica(),
		OwnedVertices:    node.OwnedCount(),
		GossipRounds:     node.Members().Round(),
		Forwards:         s.forwards.Load(),
		ForwardFails:     s.forwardFails.Load(),
		HopsServed:       s.hopsServed.Load(),
		ShardUnreachable: s.shardUnreachable.Load(),
		Hedges:           s.hedges.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		Failovers:        s.failovers.Load(),
		Peers:            map[string]string{},
		PeerBreakers:     map[string]string{},
	}
	for _, ps := range node.Members().Snapshot() {
		st.Cluster.Peers[ps.Peer.ID] = ps.StateS
	}
	s.peerBreakerMu.Lock()
	for key, b := range s.peerBreakers {
		st.Cluster.PeerBreakers[key.peer+"/"+key.graph] = fmt.Sprintf("%s (opens=%d)", b.State(), b.Opens())
	}
	s.peerBreakerMu.Unlock()
	st.Cluster.Replication = s.replicationStats()
}

// ClusterStats is the cluster slice of ServeStats ("smallworld.serve").
type ClusterStats struct {
	Self             string
	Shard            string
	Replica          int
	OwnedVertices    int
	GossipRounds     uint64
	Forwards         int64
	ForwardFails     int64
	HopsServed       int64
	ShardUnreachable int64
	Hedges           int64
	HedgeWins        int64
	Failovers        int64
	// Replication describes journal shipping and anti-entropy (nil unless a
	// replicated mutation log is attached).
	Replication *ReplicationStats `json:",omitempty"`
	// Peers maps peer id to failure-detector state.
	Peers map[string]string
	// PeerBreakers maps "peer/graph" to forward breaker state.
	PeerBreakers map[string]string
}
