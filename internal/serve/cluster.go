package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
)

// This file is the cluster half of the serving layer: when EnableCluster
// installs a shard map, eligible /route queries run the partial greedy
// router over the local shard and hand each exit of the walk to the owning
// peer as one frame on a persistent hop stream (hopwire.go; the stream is an
// upgrade of POST /cluster/hop); the peer routes one segment and returns it,
// and the entry daemon stitches the segments. Forwarding reuses the daemon's
// resilience vocabulary — a circuit breaker per (peer, graph), the
// RetryPolicy's backoff, the request deadline — and a forward that cannot be
// completed comes back as the classified shard-unreachable failure, never a
// hang: the cluster degrades to "that shard's vertices are unreachable" while
// every shard-local route keeps working.

// EnableCluster installs the shard map and starts answering /cluster/hop
// and /cluster/gossip. client carries every HTTP call this daemon makes to a
// peer — gossip exchanges, journal ships, segment pulls, metrics scrapes,
// all through peerCall; hops ride their own streams — and may be nil (a
// default client; deadlines bound every call). Call before serving — the
// field is not synchronized against in-flight requests.
func (s *Server) EnableCluster(node *cluster.Node, client *http.Client) {
	if client == nil {
		client = &http.Client{}
	}
	s.clusterNode = node
	s.clusterClient = client
}

// peerCall is the one HTTP exchange this daemon makes with a peer outside
// the hop streams. It sends req as a JSON POST to http://<peer.ID><path> (a
// GET when req is nil) on the cluster client, with the request id and, when
// tp is non-empty, the sender's span in the Traceparent header. The call is
// bounded by ctx's deadline, or by RequestTimeout when ctx has none. The body
// of a 200 or 409 answer (409s carry positions on the replication endpoints)
// is handed to read under a limit-byte cap; the rest of any body is drained
// so the connection is reused. It returns the peer's status.
func (s *Server) peerCall(ctx context.Context, peer cluster.Peer, path string, req any, tp string, limit int64, read func(io.Reader) error) (int, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	method, body := http.MethodGet, io.Reader(nil)
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		method, body = http.MethodPost, bytes.NewReader(b)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, "http://"+peer.ID+path, body)
	if err != nil {
		return 0, err
	}
	if req != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	if tp != "" {
		hreq.Header.Set(obs.TraceHeader, tp)
	}
	hresp, err := s.clusterClient.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, 1<<16))
		hresp.Body.Close()
	}()
	if hresp.StatusCode == http.StatusOK || hresp.StatusCode == http.StatusConflict {
		return hresp.StatusCode, read(io.LimitReader(hresp.Body, limit))
	}
	return hresp.StatusCode, nil
}

// decodeInto is the peerCall reader of a JSON answer: it decodes into v.
func decodeInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

// Exchange implements cluster.Transport over peerCall: one push/pull round
// trip with peer's /cluster/gossip, bounded by ctx (RunGossip gives each
// exchange its interval). With a replicated log attached, the sender's
// identity is re-read after the log's current position is set on it, so the
// request carries the newest epoch whatever the caller built it from.
func (s *Server) Exchange(ctx context.Context, peer cluster.Peer, req cluster.GossipRequest) (cluster.GossipResponse, error) {
	if log, _, node := s.replicationLog(); log != nil {
		selfPosition(log, node)
		req.From = node.Self()
	}
	var resp cluster.GossipResponse
	status, err := s.peerCall(ctx, peer, "/cluster/gossip", req, "", 1<<20, decodeInto(&resp))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return resp, fmt.Errorf("gossip %s: %w", peer.ID, err)
	}
	return resp, nil
}

// clusterEligible reports whether a query on nw starts on the sharded path:
// cluster mode is on and nw is the snapshot the shard map was built over
// (equal memoized fingerprints — after a hot swap to another graph the mask
// no longer applies and the query routes over the full graph here). Whether
// the episode can walk one shard at all — greedy under phi, no fault plan,
// no live overlay — is core's to decide (core.ErrMaskUnsupported), on the
// same view it routes over.
func (s *Server) clusterEligible(nw *core.Network) bool {
	node := s.clusterNode
	return node != nil && nw.Graph.Fingerprint() == node.Graph().Fingerprint()
}

// routeFwd is the forwarding summary of one sharded episode attempt, as
// reported in RouteResponse: boundary crossings, hedges fired and failovers
// won. The entry daemon makes every forward, so it counts all three itself.
type routeFwd struct {
	forwards  int
	hedges    int
	failovers int
}

// clusterRoute runs one attempt of a sharded greedy episode into es.out, and
// the entry daemon drives every hop of it. Each segment is one core episode
// over a shard's mask: the entry walks its own, hands each exit to the peer
// owning it — the peer routes one segment and returns it (serveHop) — and
// stitches the segments until the walk is classified. An exit back inside
// the entry's own mask continues here, without an RPC. Every continuation
// walks what route.HandOver leaves of cfg's scan budget, and an exit reached
// with none left is cut there, so the stitched walk is cut where one walk on
// the whole graph is, whatever the peers' own MaxHops. A forward that cannot
// be completed classifies the episode shard-unreachable. Greedy is strictly
// φ-increasing, so the walk never repeats a vertex and the loop ends; the
// deadline bounds it regardless. key is the query's item key: its k-th
// crossing draws under drawKey(key, k).
//
// forwards counts every exit, re-entries included: the times the path leaves
// the current shard's mask, a pure function of (path, masks, entry shard). An
// exit cut for want of a scan counts, though it is neither forwarded nor
// continued. The segments count nothing; the attempt is recorded here, once,
// as one engine episode with the stitched result, so cluster-wide counters
// sum honestly. An episode core will not walk on one shard comes back as
// core.ErrMaskUnsupported, routed and recorded nowhere.
func (s *Server) clusterRoute(ctx context.Context, nw *core.Network, graphName string, key uint64, cfg core.EpisodeConfig, es *episodeState, rt *reqTrace, tm *Timings) (routeFwd, error) {
	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	res := &es.out
	owned := s.clusterNode.OwnedMask()
	seg := cfg
	seg.Owned, seg.Counters = owned, nil
	var fwd routeFwd
	if err := s.engineRoute(nw, seg, &es.sc, res, rt, tm, "partial"); err != nil {
		return fwd, err
	}
	local := &es.local
	for exit := hopSegment(res).exit(); exit >= 0; {
		fwd.forwards++
		scans, ok := route.HandOver(cfg.MaxHops, res)
		if !ok {
			break
		}
		seg.S, seg.MaxHops = exit, scans
		var hop HopResponse
		if owned[exit] {
			// At least 1 ns: a zero Timeout reads "none", and a spent
			// deadline must still cut the continuation's first scan.
			seg.Timeout = max(time.Until(deadline), time.Nanosecond)
			detail := "partial"
			if rt != nil {
				detail = fmt.Sprintf("partial depth=%d", fwd.forwards)
			}
			if err := s.engineRoute(nw, seg, &es.sc, local, rt, tm, detail); err != nil {
				return fwd, err
			}
			hop = hopSegment(local)
		} else {
			req := HopRequest{Graph: graphName, S: exit, T: cfg.T, MaxScans: seg.MaxHops}
			fwdStart := time.Now()
			hop, ok = s.forwardHop(ctx, req, deadline, fwd.forwards, drawKey(key, fwd.forwards), &fwd, rt, tm)
			tm.ForwardUs += time.Since(fwdStart).Microseconds()
			if !ok {
				// No owner answered: the walk ends at the exit, unreachable.
				s.shardUnreachable.Add(1)
				hop = HopResponse{Failure: string(route.FailShardUnreachable), Stuck: -1}
				s.logger.WarnContext(ctx, "shard unreachable", "graph", graphName,
					"exit_vertex", exit, "t", cfg.T)
			}
		}
		mergeHop(res, hop)
		exit = hop.exit()
	}
	// A cut — by the scan budget or the clock, in whichever segment — answers
	// at the source, as one walk on the whole graph does.
	if res.Failure == route.FailDeadline {
		res.FailAtSource(cfg.S, route.FailDeadline)
	}
	s.counters.Record(*res, time.Since(start))
	return fwd, nil
}

// hopSegment is the HopResponse of one routed segment; its path aliases res.
func hopSegment(res *route.Result) HopResponse {
	return HopResponse{Success: res.Success, Failure: string(res.Failure), Stuck: res.Stuck,
		Path: res.Path, Moves: res.Moves}
}

// exit returns the vertex an unclassified segment ends at — where the walk
// continues — or -1 when the segment classified the episode.
func (h HopResponse) exit() int {
	if h.Success || h.Failure != "" {
		return -1
	}
	return h.Path[len(h.Path)-1]
}

var errBadSegment = errors.New("serve: hop segment does not continue the walk")

// checkSegment vets a peer's segment before the entry daemon stitches it and
// forwards its exit: it must start at the vertex forwarded, and an
// unclassified one must move and end on the graph. A segment that fails is
// the peer's failure, like a transport error.
func checkSegment(seg HopResponse, from, n int) error {
	if seg.Path[0] != from {
		return errBadSegment
	}
	if x := seg.exit(); x >= 0 && (len(seg.Path) < 2 || x >= n) {
		return errBadSegment
	}
	return nil
}

// mergeHop stitches a segment onto the path so far. The segment starts at the
// exit vertex the path already ends with, so its first vertex is dropped;
// greedy is strictly objective-increasing, so the merged path has no revisits
// and Unique stays len(Path).
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

// forwardHop hands the walk at vertex req.S — the episode's k-th boundary
// crossing, whose draws are keyed by key — to the replica set owning it and
// returns the segment it routed. Candidates come from OwnersOf in
// deterministic failover order (alive before suspect, then replica id);
// open-breaker peers are skipped. The first candidate is posted immediately;
// if a hedge policy is configured and the candidate has not answered after
// the hedge delay, a second attempt fires at the next candidate and the
// first 200 wins — the loser is cancelled via its context and records
// nothing (slow is not a strike). A candidate that fails on its own counts
// against its (peer, graph) breaker, strikes the membership failure
// detector, and fails over to the next candidate immediately.
//
// When every candidate of a pass failed, retryable failures (transport
// errors, 5xx) back off, Retry.Backoff(key, pass), and retry under the
// request deadline with a fresh candidate list; pure-4xx passes are
// permanent. ok is false when no answer could be obtained — no routable
// owner, breakers open, candidates and retries exhausted, deadline spent —
// and the caller classifies the episode shard-unreachable.
func (s *Server) forwardHop(ctx context.Context, req HopRequest, deadline time.Time, k int, key uint64, fwd *routeFwd, rt *reqTrace, tm *Timings) (HopResponse, bool) {
	node := s.clusterNode
	for attempt := 1; ; attempt++ {
		if time.Until(deadline) <= 0 {
			return HopResponse{}, false
		}
		owners := node.OwnersOf(req.S)
		if len(owners) == 0 {
			s.logger.WarnContext(ctx, "forward failed", "reason", "no routable owner", "vertex", req.S)
			return HopResponse{}, false
		}
		cands := owners[:0:0]
		for _, p := range owners {
			if _, err := s.peerBreakers.get(p.ID, req.Graph).Allow(); err == nil {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			s.logger.WarnContext(ctx, "forward failed", "reason", "peer breakers open", "vertex", req.S, "replicas", len(owners))
			return HopResponse{}, false
		}
		resp, retryable, ok := s.tryReplicas(ctx, req, deadline, k, key, cands, fwd, rt, tm)
		if ok {
			return resp, true
		}
		if !retryable || attempt >= s.cfg.Retry.MaxAttempts {
			return HopResponse{}, false
		}
		if _, ok := s.backoff(ctx, key, attempt, deadline, "forward attempt", rt, tm); !ok {
			return HopResponse{}, false
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
// first, hedge onto the second after the delay drawn under key, fail over to
// the next on observed failure, first 200 wins; hedges and failovers are
// counted into fwd. retryable reports whether at least one failure was
// transient (transport error or 5xx) — a pure-4xx pass will not improve on
// retry.
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
func (s *Server) tryReplicas(ctx context.Context, req HopRequest, deadline time.Time, k int, key uint64, cands []cluster.Peer, fwd *routeFwd, rt *reqTrace, tm *Timings) (HopResponse, bool, bool) {
	node := s.clusterNode
	results := make(chan *hopAttempt, len(cands))
	atts := make([]hopAttempt, len(cands))
	passStart := time.Now()
	// The forward_rpc span label, built only when spans are recorded: rt's
	// methods are nil-safe, but their arguments are evaluated before the call.
	var label string
	if rt != nil {
		label = fmt.Sprintf("hop depth=%d", k)
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
			if a.err == nil && a.status == http.StatusOK {
				a.err = checkSegment(a.resp, req.S, node.Graph().N())
			}
			a.dur = time.Since(a.start)
			results <- a
		}()
	}

	launch(0)
	next, pending := 1, 1
	var hedgeC <-chan time.Time
	if s.cfg.HedgeAfter > 0 && next < len(cands) {
		c, stop := s.hedgeTimer(hedgeDelay(s.cfg.HedgeAfter, s.cfg.Retry.Seed, key))
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
				fwd.hedges++
				s.hedges.Add(1)
				hedgeWait := time.Since(passStart)
				tm.HedgeUs += hedgeWait.Microseconds()
				s.phaseLat[phaseHedge].Record(hedgeWait)
				rt.add(obs.SpanHedgeWait, passStart, hedgeWait,
					cands[next].ID, fmt.Sprintf("hedge idx=%d", next), "")
				if s.logger.Enabled(ctx, slog.LevelDebug) {
					s.logger.DebugContext(ctx, "forward hedged", "vertex", req.S,
						"first", cands[0].ID, "hedge", cands[next].ID)
				}
				launch(next)
				next++
				pending++
			}
		case a := <-results:
			pending--
			peer := cands[a.idx]
			pb := s.peerBreakers.get(peer.ID, req.Graph)
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
					fwd.failovers++
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
				s.logger.WarnContext(ctx, "forward failed", "peer", peer.ID, "err", a.err)
			} else {
				errMsg = fmt.Sprintf("status %d", a.status)
				s.logger.WarnContext(ctx, "forward failed", "peer", peer.ID, "status", a.status)
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
// HopResponse, routed in a request-local episode state: the documented
// contract and the reference the frame codec is tested against.
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
		if !decodeBody(w, r, 64<<10, &req) {
			return
		}
		budget := time.Duration(req.DeadlineMs) * time.Millisecond
		resp, status, msg := s.serveHop(r.Context(), req, budget, r.Header.Get(obs.TraceHeader), new(episodeState))
		switch status {
		case http.StatusOK:
			writeJSON(w, status, resp)
		case http.StatusServiceUnavailable:
			writeError(w, status, retryAfterHint, "%s", msg)
		default:
			writeError(w, status, 0, "%s", msg)
		}
	}
}

// serveHop answers one hop, whichever front-end it arrived on: route one
// segment of a peer's greedy walk over the local mask into es and return it.
// The segment is one core episode under the hop's scan budget (req.MaxScans;
// this daemon's own MaxHops plays no part): terminal, or unclassified
// (Success false, Failure "") and ending at the exit vertex the entry daemon
// forwards next. A hop makes no outbound call; it is a pure function of
// (snapshot, s, t, scans, budget). budget is the sender's remaining request
// budget (0 = none; the hop routes under min(budget, RequestTimeout)) and tp
// its traceparent. Hops bypass the admission pool — they continue a request
// already admitted at the entry daemon, and waiting for a slot here could
// deadlock two entry daemons forwarding into each other's shards — but they
// respect draining. Any routed segment is 200, with resp.Path aliasing es; any
// other status comes with its error text. The entry daemon records the
// episode, so this touches no engine counters.
func (s *Server) serveHop(ctx context.Context, req HopRequest, budget time.Duration, tp string, es *episodeState) (resp HopResponse, status int, msg string) {
	if !s.beginRequest() {
		return resp, http.StatusServiceUnavailable, "server draining"
	}
	defer s.inflight.Done()
	graphName := graphOrDefault(req.Graph)
	nw, ok := s.Network(graphName)
	switch {
	case !ok:
		return resp, http.StatusNotFound, fmt.Sprintf("unknown graph %q", graphName)
	case nw.Graph.Fingerprint() != s.clusterNode.Graph().Fingerprint():
		return resp, http.StatusConflict, fmt.Sprintf("graph %q is not the clustered snapshot", graphName)
	case req.S < 0 || req.S >= nw.Graph.N() || req.T < 0 || req.T >= nw.Graph.N():
		return resp, http.StatusBadRequest, fmt.Sprintf("vertex pair (%d, %d) out of range (n = %d)", req.S, req.T, nw.Graph.N())
	}
	s.hopsServed.Add(1)

	// The receiving daemon records its own side of the trace: a hop root
	// parented on the caller's forward_rpc span (adopted from the
	// traceparent), with this shard's segment as its child — without it,
	// stitched trees would show the entry daemon only.
	rt := s.startHopTrace(tp, "")
	defer rt.finish("")

	timeout := s.cfg.RequestTimeout
	if budget > 0 {
		timeout = min(timeout, budget)
	}
	cfg := core.EpisodeConfig{S: req.S, T: req.T, MaxHops: req.MaxScans, Timeout: timeout,
		Owned: s.clusterNode.OwnedMask()}
	// The hop's Timings stay local: HopResponse carries no attribution (the
	// entry daemon owns the merged episode), but the per-phase histograms and
	// spans still need the accumulator the segment threads through.
	if err := s.engineRoute(nw, cfg, &es.sc, &es.out, rt, &Timings{}, "partial"); err != nil {
		// The slot carries a live overlay: a mask routes the immutable base only.
		return resp, http.StatusConflict, fmt.Sprintf("graph %q: %v", graphName, err)
	}
	resp = hopSegment(&es.out)
	if s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.DebugContext(ctx, "hop served", "s", req.S, "t", req.T,
			"success", resp.Success, "failure", resp.Failure, "exit", resp.exit())
	}
	return resp, http.StatusOK, ""
}

// handleClusterGossip serves POST /cluster/gossip: merge the sender and its
// relayed view into the membership and answer with ours — the pull half of
// push/pull, with the self entry carrying the log's current position when a
// replicated log is attached. Gossip stays up while draining so peers
// observe the shutdown as liveness, not silence.
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
	if !decodeBody(w, r, 1<<20, &req) {
		return
	}
	if log, _, _ := s.replicationLog(); log != nil {
		selfPosition(log, node)
	}
	view := node.Members().Receive(req.From, req.View)
	writeJSON(w, http.StatusOK, cluster.GossipResponse{Self: node.Self(), View: view})
}

// writeClusterMetrics emits the smallworld_cluster_* families (only called
// when cluster mode is on).
func (s *Server) writeClusterMetrics(p *obs.PromWriter) {
	node := s.clusterNode
	p.Scalar("smallworld_cluster_forwards_total", "counter", "Hop forwards attempted.", s.forwards.Load())
	p.Scalar("smallworld_cluster_forward_failures_total", "counter", "Hop forward attempts that failed (transport error, non-200, breaker open).", s.forwardFails.Load())
	p.Scalar("smallworld_cluster_shard_unreachable_total", "counter", "Episodes classified shard-unreachable at this daemon.", s.shardUnreachable.Load())
	p.Scalar("smallworld_cluster_hops_served_total", "counter", "POST /cluster/hop segments served.", s.hopsServed.Load())
	p.Scalar("smallworld_cluster_hedges_total", "counter", "Hedged second forward attempts fired.", s.hedges.Load())
	p.Scalar("smallworld_cluster_hedge_wins_total", "counter", "Hedged attempts whose response won the race.", s.hedgeWins.Load())
	p.Scalar("smallworld_cluster_failovers_total", "counter", "Forwards that succeeded at a replica other than the first choice.", s.failovers.Load())
	p.Scalar("smallworld_cluster_gossip_rounds_total", "counter", "Gossip rounds ticked.", int64(node.Members().Round()))
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
	p.Scalar("smallworld_cluster_hop_redials_total", "counter", "Forwards retried on a fresh dial because the reused stream was stale.", s.hopRedials.Load())

	counts := node.Members().CountByState()
	p.Family("smallworld_cluster_peers", "gauge", "Known peers by failure-detector state.")
	for _, st := range []cluster.PeerState{cluster.StateAlive, cluster.StateSuspect, cluster.StateDown} {
		p.SampleInt("smallworld_cluster_peers",
			[]obs.Label{{Name: "state", Value: st.String()}}, int64(counts[st]))
	}
	s.peerBreakers.writeMetrics(p, "peer", "graph",
		"smallworld_cluster_peer_breaker_state", "Forward breaker state per (peer, graph): 0 closed, 1 open, 2 half-open.",
		"smallworld_cluster_peer_breaker_opens_total", "Cumulative forward breaker trips to open.")
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
		PeerBreakers:     s.peerBreakers.vars(),
	}
	for _, ps := range node.Members().Snapshot() {
		st.Cluster.Peers[ps.Peer.ID] = ps.StateS
	}
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
