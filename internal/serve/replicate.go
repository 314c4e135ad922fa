package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// Replication: a shard served by a replica set keeps one replicated live
// graph. The primary (replica 0) is the only writer — /admin/mutate acks
// after the local fsynced journal append, then ships the batch to the
// shard's replicas over POST /cluster/replicate. Shipping is asynchronous
// and may miss (a replica down, a race, a dropped response); the background
// anti-entropy loop is the catch-all: it compares the (base fingerprint,
// generation, epoch) every peer advertises through gossip and pulls missing
// journal segments over POST /cluster/segment until the local log has
// caught up. Both paths move the same canonical batch payloads through
// mutate.Import, so converged replicas are bit-identical — same journal
// bytes, same overlay epoch, same live fingerprint.

// maxReplicateBody bounds a decoded replication request/response body: a
// segment is at most maxSegmentBatches canonical batches, far under this.
const maxReplicateBody = 32 << 20

// replicationLog resolves the replicated mutation log: cluster mode and a
// mutation log both enabled. Every replication entry point starts here.
func (s *Server) replicationLog() (*mutate.Log, string, *cluster.Node) {
	node := s.clusterNode
	if node == nil {
		return nil, "", nil
	}
	log, name := s.MutationLog()
	if log == nil {
		return nil, "", nil
	}
	return log, name, node
}

// selfPosition reads the log's position into the membership's self entry
// and returns it. Gossip is the only reader of the entry's live fields, so
// they are set where it reads them — before an exchange goes out, before a
// gossip answer, at the top of an anti-entropy round — and nowhere on the
// ack, ship or import path: a write stream costs at most one O(n+m) digest
// per exchange (Position is memoized per overlay), and every advertised
// (epoch, generation, fingerprint) is that of one overlay.
func selfPosition(log *mutate.Log, node *cluster.Node) mutate.Position {
	pos := log.Position()
	node.SetLive(pos.Epoch, pos.Generation, pos.LiveFP)
	return pos
}

// handleClusterReplicate serves POST /cluster/replicate — the push half of
// replication: import a shipped journal segment through the same
// validate→journal→publish pipeline /admin/mutate uses, byte for byte. The
// response always carries the local journal coordinates (mutate.Log.Head: no
// live fingerprint, which would cost a digest per push) and refreshed
// identity, so a pusher that raced ahead (409 gap) learns exactly where to
// re-ship from.
// Like gossip, imports stay up while draining: repair traffic is what lets
// the rest of the shard release a draining primary.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	log, mutGraph, node := s.replicationLog()
	if log == nil {
		writeError(w, http.StatusNotFound, 0, "replication disabled (needs cluster mode and -mutate-dir)")
		return
	}
	// Adopt the shipper's trace context: the import shows up as a hop root
	// under its replicate forward_rpc span.
	rt := s.startHopTrace(r.Header.Get(obs.TraceHeader), "replicate")
	defer func() { rt.finish("") }()
	var req ReplicateRequest
	if !decodeBody(w, r, maxReplicateBody, &req) {
		return
	}
	name := req.Graph
	if name == "" {
		name = mutGraph
	}
	if name != mutGraph {
		writeError(w, http.StatusNotFound, 0, "graph %q is not replicated (mutation log drives %q)", name, mutGraph)
		return
	}
	applied, err := log.Import(req.Segment)
	if applied > 0 {
		s.importedBatches.Add(int64(applied))
	}
	if err != nil {
		var syncErr *mutate.SyncError
		var corrupt *mutate.CorruptError
		switch {
		case errors.As(err, &syncErr):
			s.logger.InfoContext(ctx, "replicate refused", "graph", name, "from", req.Segment.From,
				"batches", len(req.Segment.Batches), "err", err)
			writeJSON(w, http.StatusConflict, ReplicateResponse{
				Graph: name, Applied: applied, Position: log.Head(), Self: node.Self(),
			})
		case errors.As(err, &corrupt):
			s.logger.WarnContext(ctx, "replicate rejected corrupt batch", "graph", name, "err", err)
			writeError(w, http.StatusUnprocessableEntity, 0, "segment rejected: %v", err)
		default:
			s.logger.ErrorContext(ctx, "replicate failed", "graph", name, "err", err)
			writeError(w, http.StatusInternalServerError, 0, "%v", err)
		}
		return
	}
	s.logger.DebugContext(ctx, "replicate applied", "graph", name, "from", req.Segment.From,
		"batches", len(req.Segment.Batches), "applied", applied)
	writeJSON(w, http.StatusOK, ReplicateResponse{
		Graph: name, Applied: applied, Position: log.Head(), Self: node.Self(),
	})
}

// handleClusterSegment serves POST /cluster/segment — the pull half of
// anti-entropy: export the journal range a lagging replica is missing,
// bound to its (base fingerprint, generation). A history mismatch is 409
// with the local position, so the puller knows not to apply anything and
// what the exporter is actually on.
func (s *Server) handleClusterSegment(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	log, mutGraph, node := s.replicationLog()
	if log == nil {
		writeError(w, http.StatusNotFound, 0, "replication disabled (needs cluster mode and -mutate-dir)")
		return
	}
	// Adopt the puller's trace context: the export shows up as a hop root
	// under its segment forward_rpc span.
	rt := s.startHopTrace(r.Header.Get(obs.TraceHeader), "segment")
	defer func() { rt.finish("") }()
	var req SegmentRequest
	if !decodeBody(w, r, 1<<20, &req) {
		return
	}
	name := req.Graph
	if name == "" {
		name = mutGraph
	}
	if name != mutGraph {
		writeError(w, http.StatusNotFound, 0, "graph %q is not replicated (mutation log drives %q)", name, mutGraph)
		return
	}
	seg, err := log.Export(req.BaseFP, req.Generation, req.From, req.Max)
	if err != nil {
		var syncErr *mutate.SyncError
		if errors.As(err, &syncErr) {
			s.logger.InfoContext(ctx, "segment refused", "graph", name, "from", req.From, "err", err)
			writeJSON(w, http.StatusConflict, SegmentResponse{
				Graph: name, Position: log.Head(), Self: node.Self(),
			})
			return
		}
		s.logger.ErrorContext(ctx, "segment export failed", "graph", name, "from", req.From, "err", err)
		writeError(w, http.StatusInternalServerError, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SegmentResponse{
		Graph: name, Segment: seg, Position: log.Head(), Self: node.Self(),
	})
}

// shipToReplicas pushes the journal range starting at the just-committed
// batch to every routable replica of the local shard. It runs after the
// mutate response is written — the ack contract is local durability, not
// replication — and a replica it cannot reach is left to anti-entropy. One
// gap answer per replica is retried immediately: the replica told us its
// seq, so the missing prefix is re-exported and shipped in the same pass.
func (s *Server) shipToReplicas(fromSeq int) {
	log, mutGraph, node := s.replicationLog()
	if log == nil {
		return
	}
	replicas := node.ReplicaSet()
	if len(replicas) == 0 {
		return
	}
	pos := log.Head()
	seg, err := log.Export(pos.BaseFP, pos.Generation, fromSeq, 0)
	if err != nil {
		// The range moved under us (e.g. a generation bump); anti-entropy
		// owns reconciliation from here.
		s.shipFails.Add(1)
		s.logger.Warn("journal ship aborted", "graph", mutGraph, "from", fromSeq, "err", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	// The push pass is one internal trace: a root on the anti-entropy lane
	// (detail "ship") with one forward_rpc child per replica shipped to, so
	// stitched trees show repair traffic next to request traffic.
	rt := s.startLocalTrace(obs.SpanAntiEntropy, "ship")
	for _, peer := range replicas {
		s.shipSegment(ctx, node, peer, mutGraph, log, seg, true, rt)
	}
	rt.finish("")
}

// shipSegment posts one segment to one replica, feeding the answered
// identity back into membership (a replication response is direct contact).
// retryGap allows a single immediate re-ship from the replica's reported
// seq when the push raced ahead of it. The replica reports its position as
// read after the refused import, by when the concurrently pushed previous
// batch has usually landed — so a reported seq equal to seg.From is the same
// race, not a refusal, and is re-shipped too.
func (s *Server) shipSegment(ctx context.Context, node *cluster.Node, peer cluster.Peer, graphName string, log *mutate.Log, seg mutate.Segment, retryGap bool, rt *reqTrace) {
	var resp ReplicateResponse
	spanID := rt.allocID()
	shipStart := time.Now()
	status, err := s.peerCall(ctx, peer, "/cluster/replicate", ReplicateRequest{Graph: graphName, Segment: seg},
		rt.traceparent(spanID), maxReplicateBody, decodeInto(&resp))
	shipErr := ""
	if err != nil {
		shipErr = err.Error()
	} else if status != http.StatusOK {
		shipErr = fmt.Sprintf("status %d", status)
	}
	rt.end(spanID, obs.SpanForwardRPC, shipStart, time.Since(shipStart), peer.ID,
		fmt.Sprintf("replicate from=%d batches=%d", seg.From, len(seg.Batches)), shipErr)
	if err != nil {
		s.shipFails.Add(1)
		node.Members().ReportFailure(peer.ID)
		s.logger.Warn("journal ship failed", "peer", peer.ID, "from", seg.From, "err", err)
		return
	}
	node.Members().Receive(resp.Self, nil)
	switch {
	case status == http.StatusOK:
		s.shippedBatches.Add(int64(resp.Applied))
	case status == http.StatusConflict && retryGap &&
		resp.Position.BaseFP == seg.BaseFP &&
		resp.Position.Generation == seg.Generation &&
		resp.Position.Seq <= seg.From:
		wider, err := log.Export(seg.BaseFP, seg.Generation, resp.Position.Seq, 0)
		if err != nil {
			s.shipFails.Add(1)
			s.logger.Warn("journal re-ship aborted", "peer", peer.ID, "from", resp.Position.Seq, "err", err)
			return
		}
		s.shipSegment(ctx, node, peer, graphName, log, wider, false, rt)
	default:
		s.shipFails.Add(1)
		s.logger.Warn("journal ship refused", "peer", peer.ID, "from", seg.From, "status", status)
	}
}

// AntiEntropyRound runs one synchronous repair pass: among the shard's
// routable replicas, find the most advanced peer on the local history
// (same base fingerprint and generation, higher epoch — all learned from
// gossip) and pull journal segments from it until caught up. Peers on a
// later generation are counted as generation lag and skipped: generations
// only move by compaction, which is disabled under replication, so a
// nonzero counter flags a misconfigured shard rather than a state this
// loop silently papers over. Returns the batches imported.
func (s *Server) AntiEntropyRound(ctx context.Context) int {
	log, mutGraph, node := s.replicationLog()
	if log == nil {
		return 0
	}
	s.aeRounds.Add(1)
	pos := selfPosition(log, node)
	var target cluster.Peer
	found := false
	for _, p := range node.ReplicaSet() {
		switch {
		case p.LiveFP == "":
			// The peer has not advertised a live position yet.
		case p.Generation > pos.Generation:
			s.genLag.Add(1)
			s.logger.Warn("replication generation lag", "peer", p.ID,
				"peer_generation", p.Generation, "local_generation", pos.Generation)
		case p.Generation == pos.Generation && p.Epoch > pos.Epoch:
			if !found || p.Epoch > target.Epoch || (p.Epoch == target.Epoch && p.ID < target.ID) {
				target, found = p, true
			}
		}
	}
	if !found {
		return 0
	}
	// One trace per repair round on the internal id lane: the root is the
	// anti_entropy span, each segment pull a forward_rpc child, and the
	// exporter's spans (adopted from the Traceparent header) nest under it.
	rt := s.startLocalTrace(obs.SpanAntiEntropy, "pull")
	roundStart := time.Now()
	defer func() {
		s.phaseLat[phaseAntiEntropy].Record(time.Since(roundStart))
		rt.finish("")
	}()
	pulled := 0
	for {
		pos = log.Head()
		var resp SegmentResponse
		spanID := rt.allocID()
		pullStart := time.Now()
		status, err := s.peerCall(ctx, target, "/cluster/segment", SegmentRequest{
			Graph: mutGraph, BaseFP: pos.BaseFP, Generation: pos.Generation, From: pos.Seq,
		}, rt.traceparent(spanID), maxReplicateBody, decodeInto(&resp))
		pullErr := ""
		if err != nil {
			pullErr = err.Error()
		} else if status != http.StatusOK {
			pullErr = fmt.Sprintf("status %d", status)
		}
		rt.end(spanID, obs.SpanForwardRPC, pullStart, time.Since(pullStart), target.ID,
			fmt.Sprintf("segment from=%d", pos.Seq), pullErr)
		if err != nil {
			node.Members().ReportFailure(target.ID)
			s.logger.Warn("anti-entropy pull failed", "peer", target.ID, "from", pos.Seq, "err", err)
			return pulled
		}
		node.Members().Receive(resp.Self, nil)
		if status != http.StatusOK {
			// 409: the exporter moved off our history (or we were wrong about
			// its position). Re-resolve next round from fresher gossip.
			s.logger.Info("anti-entropy pull refused", "peer", target.ID, "from", pos.Seq, "status", status)
			return pulled
		}
		if len(resp.Segment.Batches) == 0 {
			return pulled
		}
		applied, err := log.Import(resp.Segment)
		if applied > 0 {
			pulled += applied
			s.aePulled.Add(int64(applied))
			s.importedBatches.Add(int64(applied))
		}
		if err != nil {
			s.logger.Warn("anti-entropy import failed", "peer", target.ID, "from", resp.Segment.From, "err", err)
			return pulled
		}
		if log.Head().Seq >= resp.Position.Seq {
			return pulled
		}
	}
}

// RunAntiEntropy drives AntiEntropyRound every Config.AntiEntropyInterval
// until ctx is done, on the same cluster.Every cadence gossip uses, so a
// co-started replica set spreads its repair traffic instead of pulling in
// lockstep. Each pull is bounded by RequestTimeout (peerCall's fallback), so
// a target that accepts and never answers costs one round, not the loop.
func (s *Server) RunAntiEntropy(ctx context.Context) {
	node := s.clusterNode
	if node == nil {
		return
	}
	cluster.Every(ctx, node.Self().ID, s.cfg.AntiEntropyInterval, func() { s.AntiEntropyRound(ctx) })
}

// ReplicationStats is the replication slice of ClusterStats: the local
// position plus the shipping and anti-entropy counters.
type ReplicationStats struct {
	// Primary reports the write role (replica 0 acks mutations).
	Primary bool
	// Position is the local log's replication coordinate; replicas of one
	// shard have converged exactly when their Positions are equal.
	Position mutate.Position
	// ShippedBatches counts batches acknowledged by replicas on the push
	// path; ShipFailures counts pushes that did not land (left to
	// anti-entropy).
	ShippedBatches int64
	ShipFailures   int64
	// ImportedBatches counts batches imported here, both pushed and pulled;
	// AntiEntropyPulled is the pulled share.
	ImportedBatches   int64
	AntiEntropyRounds int64
	AntiEntropyPulled int64
	// GenerationLag counts rounds that saw a same-shard peer on a later
	// generation — it should stay 0 while compaction is disabled under
	// replication.
	GenerationLag int64
	// ReplicaLag is the per-replica divergence computed from gossip-learned
	// live positions (see cluster.ReplicaLag) — the /debug/vars view of what
	// the smallworld_replication_replica_* gauges export.
	ReplicaLag []cluster.ReplicaLag `json:",omitempty"`
}

// replicationStats fills the replication slice of ClusterStats (nil unless
// a replicated mutation log is attached).
func (s *Server) replicationStats() *ReplicationStats {
	log, _, node := s.replicationLog()
	if log == nil {
		return nil
	}
	pos := log.Position()
	return &ReplicationStats{
		Primary:           node.Replica() == 0,
		Position:          pos,
		ShippedBatches:    s.shippedBatches.Load(),
		ShipFailures:      s.shipFails.Load(),
		ImportedBatches:   s.importedBatches.Load(),
		AntiEntropyRounds: s.aeRounds.Load(),
		AntiEntropyPulled: s.aePulled.Load(),
		GenerationLag:     s.genLag.Load(),
		ReplicaLag:        node.ReplicaLags(pos.Epoch, pos.Generation),
	}
}

// writeReplicationMetrics emits the smallworld_replication_* families (only
// when a replicated mutation log is attached).
func (s *Server) writeReplicationMetrics(p *obs.PromWriter) {
	log, _, node := s.replicationLog()
	if log == nil {
		return
	}
	pos := log.Head()
	primary := int64(0)
	if node.Replica() == 0 {
		primary = 1
	}
	p.Scalar("smallworld_replication_primary", "gauge", "1 on the shard's write primary (replica 0).", primary)
	p.Scalar("smallworld_replication_seq", "gauge", "Local replicated-log sequence (journaled batches this generation).", int64(pos.Seq))
	p.Scalar("smallworld_replication_shipped_batches_total", "counter", "Batches acknowledged by replicas on the push path.", s.shippedBatches.Load())
	p.Scalar("smallworld_replication_ship_failures_total", "counter", "Journal pushes that did not land (left to anti-entropy).", s.shipFails.Load())
	p.Scalar("smallworld_replication_imported_batches_total", "counter", "Batches imported from peers (pushed and pulled).", s.importedBatches.Load())
	p.Scalar("smallworld_replication_anti_entropy_rounds_total", "counter", "Anti-entropy repair rounds run.", s.aeRounds.Load())
	p.Scalar("smallworld_replication_anti_entropy_pulled_total", "counter", "Batches pulled by anti-entropy.", s.aePulled.Load())
	p.Scalar("smallworld_replication_generation_lag_total", "counter", "Rounds that saw a same-shard peer on a later journal generation.", s.genLag.Load())

	// Per-replica lag gauges from gossip-learned live positions. The epoch
	// gauge is the peer's raw advertised position; batches_behind is the
	// local-minus-peer delta on a shared generation (negative = peer ahead).
	lags := node.ReplicaLags(pos.Epoch, pos.Generation)
	if len(lags) == 0 {
		return
	}
	peerLabel := func(id string) []obs.Label {
		return []obs.Label{{Name: "peer", Value: id}}
	}
	p.Family("smallworld_replication_replica_epoch", "gauge", "Gossip-advertised overlay epoch of each same-shard replica.")
	for _, l := range lags {
		p.SampleInt("smallworld_replication_replica_epoch", peerLabel(l.Peer), int64(l.Epoch))
	}
	p.Family("smallworld_replication_replica_generation", "gauge", "Gossip-advertised journal generation of each same-shard replica.")
	for _, l := range lags {
		p.SampleInt("smallworld_replication_replica_generation", peerLabel(l.Peer), int64(l.Generation))
	}
	p.Family("smallworld_replication_replica_batches_behind", "gauge", "Local epoch minus replica epoch on a shared generation (positive = replica behind).")
	for _, l := range lags {
		p.SampleInt("smallworld_replication_replica_batches_behind", peerLabel(l.Peer), l.BatchesBehind)
	}
	p.Family("smallworld_replication_replica_generation_skew", "gauge", "Replica generation minus local generation (nonzero flags a misconfigured shard).")
	for _, l := range lags {
		p.SampleInt("smallworld_replication_replica_generation_skew", peerLabel(l.Peer), int64(l.GenerationSkew))
	}
}
