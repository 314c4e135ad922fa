package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// Live-graph serving. A daemon started with a mutation log (-mutate-dir)
// exposes POST /admin/mutate: batches are validated against the live
// overlay, journaled (fsynced) before the response is written, and then
// published — in-flight routing requests keep the overlay epoch they
// resolved, the next request sees the new one. The mutation log owns
// durability, compaction and the order of publication (internal/mutate);
// this layer owns the HTTP contract and the one install function the log
// publishes through.

// EnableMutation attaches a mutation log to a graph slot by subscribing
// installLive to it, which serves the log's base (after a resume from a
// compacted log, the folded snapshot) and overlay at once and every commit
// after that. At most one slot per server is mutable. In cluster mode the
// mutable slot must be separate from the clustered routing slot: shard
// ownership is computed over an immutable base, so the replicated live
// graph is served whole on every replica while sharded routing continues
// on the snapshot slot.
func (s *Server) EnableMutation(log *mutate.Log, graphName string) error {
	if log == nil {
		return fmt.Errorf("serve: nil mutation log")
	}
	graphName = graphOrDefault(graphName)
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if node := s.clusterNode; node != nil {
		if nw, ok := s.Network(graphName); ok && nw.Graph.Fingerprint() == node.Graph().Fingerprint() {
			return fmt.Errorf("serve: graph %q is the clustered routing slot; enable mutation on a separate slot", graphName)
		}
	}
	if s.mutLog != nil {
		return fmt.Errorf("serve: mutation already enabled on graph %q", s.mutGraph)
	}
	var live *core.Network // touched only by the subscriber, under the log's lock
	log.Subscribe(func(base *graph.Graph, ov *graph.Overlay) {
		live = s.installLive(graphName, live, base, ov)
	})
	s.mutLog = log
	s.mutGraph = graphName
	if node := s.clusterNode; node != nil {
		// Advertise the starting log position right away, so a replica set
		// that boots together starts anti-entropy from real coordinates
		// instead of waiting for the first gossip exchange.
		selfPosition(log, node)
	}
	return nil
}

// MutationLog returns the attached mutation log and its graph slot, or nil.
func (s *Server) MutationLog() (*mutate.Log, string) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	return s.mutLog, s.mutGraph
}

// installLive publishes one commit of the mutation log and returns the
// network now serving it: on live's base, one atomic overlay store; on a
// new base (the first call, or a compaction), a fresh phi Network through
// the copy-on-write map /admin/swap uses — in-flight requests keep the
// routing-identical pre-compaction view. It runs under the log's lock.
func (s *Server) installLive(name string, live *core.Network, base *graph.Graph, ov *graph.Overlay) *core.Network {
	if live != nil && live.SetOverlay(ov) == nil {
		return live
	}
	nw := &core.Network{Graph: base, Label: fmt.Sprintf("live(n=%d,fp=%016x)", base.N(), base.Fingerprint())}
	_ = nw.SetOverlay(ov) // cannot fail: the log hands over an overlay of the base it hands over
	s.AddNetwork(name, nw)
	if live != nil {
		s.swaps.Add(1)
		s.compactSwaps.Add(1)
		s.logger.Info("compacted snapshot swapped in", "graph", name,
			"n", base.N(), "m", base.M(), "fingerprint", fmt.Sprintf("%016x", base.Fingerprint()))
	}
	return nw
}

// handleMutate serves POST /admin/mutate: decode, then apply through the
// journaled mutation log (validation → fsynced journal append → publish on
// the served network). The response is written only after the journal
// append — an acknowledged batch survives a SIGKILL. Semantically invalid
// batches are 422 with the failing op's index; the live graph is untouched
// by them.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, retryAfterHint, "server draining")
		return
	}
	defer s.inflight.Done()
	log, mutGraph := s.MutationLog()
	if log == nil {
		writeError(w, http.StatusNotFound, 0, "mutation disabled (start the daemon with -mutate-dir)")
		return
	}
	var req MutateRequest
	if !decodeBody(w, r, maxReplicateBody, &req) {
		return
	}
	name := graphOrDefault(req.Graph)
	if name != mutGraph {
		writeError(w, http.StatusNotFound, 0, "graph %q is not mutable (mutation log drives %q)", name, mutGraph)
		return
	}
	// Replicated shards have exactly one writer: replica 0. Redirecting
	// writers statically (no election) is what rules out split-brain — a
	// partitioned replica can serve stale reads, never divergent writes.
	if node := s.clusterNode; node != nil && node.Replica() != 0 {
		writeError(w, http.StatusConflict, 0,
			"replica %d of shard %q is read-only; apply mutations at the shard primary (replica 0)",
			node.Replica(), node.Self().Shard)
		return
	}
	start := time.Now()
	app, err := log.Apply(req.Ops)
	if err != nil {
		var opErr *mutate.OpError
		if errors.As(err, &opErr) {
			s.logger.InfoContext(ctx, "mutate rejected", "graph", name, "ops", len(req.Ops), "err", err)
			writeError(w, http.StatusUnprocessableEntity, 0, "%v", err)
			return
		}
		// Journal or encoding failure: the batch is not durable and was not
		// published — the daemon's disk is in trouble.
		s.logger.ErrorContext(ctx, "mutate failed", "graph", name, "err", err)
		writeError(w, http.StatusInternalServerError, 0, "%v", err)
		return
	}
	s.mutations.Add(1)
	s.logger.DebugContext(ctx, "mutate applied", "graph", name, "ops", len(req.Ops),
		"generation", app.Generation, "seq", app.Seq, "epoch", app.Epoch)
	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:      name,
		Generation: app.Generation,
		Seq:        app.Seq,
		Epoch:      app.Epoch,
		Assigned:   app.Assigned,
		ElapsedMs:  float64(time.Since(start).Nanoseconds()) / 1e6,
	})
	if s.clusterNode != nil {
		// The ack contract is local durability (the fsynced journal append
		// above), and the ack is O(batch): shipping to replicas starts after
		// the response is written, on a goroutine of its own, and a replica
		// the push misses is healed by anti-entropy. The new position reaches
		// gossip when the next exchange asks for it.
		go s.shipToReplicas(app.Seq)
	}
}

// readyLive fills the live-overlay section of a ReadyGraph when the named
// slot is driven by the mutation log.
func (s *Server) readyLive(name string, nw *core.Network) *ReadyLive {
	log, mutGraph := s.MutationLog()
	if log == nil || name != mutGraph {
		return nil
	}
	ov := nw.LiveOverlay()
	if ov == nil {
		return nil
	}
	st := log.Stats()
	return &ReadyLive{
		Fingerprint:  fmt.Sprintf("%016x", ov.Fingerprint()),
		Vertices:     ov.N(),
		Edges:        ov.M(),
		Generation:   st.Generation,
		OverlayStats: ov.Stats(),
	}
}

// writeMutateMetrics emits the smallworld_mutate_* families (only when a
// mutation log is attached).
func (s *Server) writeMutateMetrics(p *obs.PromWriter) {
	log, _ := s.MutationLog()
	if log == nil {
		return
	}
	st := log.Stats()
	p.Scalar("smallworld_mutate_batches_total", "counter", "Mutation batches journaled and published.", int64(st.Batches))
	p.Scalar("smallworld_mutate_ops_total", "counter", "Mutation ops applied across all batches.", int64(st.Ops))
	p.Scalar("smallworld_mutate_rejected_total", "counter", "Mutation batches rejected by validation.", int64(st.Rejected))
	p.Scalar("smallworld_mutate_compactions_total", "counter", "Overlay compactions committed.", int64(st.Compactions))
	p.Scalar("smallworld_mutate_replayed_batches", "gauge", "Batches replayed from the journal at the last open.", int64(st.Replayed))
	p.Scalar("smallworld_mutate_generation", "gauge", "Live journal generation (bumps at each compaction).", int64(st.Generation))
	p.Scalar("smallworld_mutate_overlay_epoch", "gauge", "Published overlay epoch (applied batches since the base snapshot).", int64(st.Overlay.Epoch))
	p.Scalar("smallworld_mutate_overlay_added_vertices", "gauge", "Vertices added over the base snapshot.", int64(st.Overlay.AddedVertices))
	p.Scalar("smallworld_mutate_overlay_removed_vertices", "gauge", "Vertices tombstoned over the base snapshot.", int64(st.Overlay.RemovedVertices))
	p.Scalar("smallworld_mutate_overlay_added_edges", "gauge", "Edges added over the base snapshot.", int64(st.Overlay.AddedEdges))
	p.Scalar("smallworld_mutate_overlay_removed_edges", "gauge", "Edges removed over the base snapshot.", int64(st.Overlay.RemovedEdges))
	p.Scalar("smallworld_mutate_overlay_dirty_vertices", "gauge", "Vertices whose adjacency differs from the base.", int64(st.Overlay.DirtyVertices))
}
