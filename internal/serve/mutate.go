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
	"repro/internal/route"
)

// Live-graph serving. A daemon started with a mutation log (-mutate-dir)
// exposes POST /admin/mutate: batches are validated against the live
// overlay, journaled (fsynced) before the response is written, and then
// published — in-flight routing requests keep the overlay epoch they
// resolved, the next request sees the new one. The mutation log owns
// durability and compaction (internal/mutate); this layer owns the HTTP
// contract, the atomic publish into the served Network, and the hot swap of
// compacted snapshots through the same copy-on-write graph map /admin/swap
// uses.

// EnableMutation attaches a mutation log to a graph slot: it builds a
// standard-phi Network over the log's base graph (which, after a resume
// from a compacted log, is the folded snapshot rather than the original
// base), publishes the log's current overlay on it, and installs it under
// graphName. At most one slot per server is mutable. In cluster mode the
// mutable slot must be separate from the clustered routing slot: shard
// ownership is computed over an immutable base, so the replicated live
// graph is served whole on every replica while sharded routing continues
// on the snapshot slot.
func (s *Server) EnableMutation(log *mutate.Log, graphName string) error {
	if log == nil {
		return fmt.Errorf("serve: nil mutation log")
	}
	if graphName == "" {
		graphName = DefaultGraph
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if node := s.clusterNode; node != nil {
		if nw, ok := s.Network(graphName); ok && nw.Graph == node.Graph() {
			return fmt.Errorf("serve: graph %q is the clustered routing slot; enable mutation on a separate slot", graphName)
		}
	}
	if s.mutLog != nil {
		return fmt.Errorf("serve: mutation already enabled on graph %q", s.mutGraph)
	}
	base, ov := log.Base(), log.Overlay()
	nw := liveNetwork(base)
	if err := nw.SetOverlay(ov); err != nil {
		return err
	}
	s.AddNetwork(graphName, nw)
	s.mutLog = log
	s.mutGraph = graphName
	if node := s.clusterNode; node != nil {
		// Advertise the starting log position right away, so a replica set
		// that boots together starts anti-entropy from real coordinates
		// instead of waiting for the first mutation.
		pos := log.Position()
		node.SetLive(pos.Epoch, pos.Generation, pos.LiveFP)
	}
	return nil
}

// MutationLog returns the attached mutation log and its graph slot, or nil.
func (s *Server) MutationLog() (*mutate.Log, string) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	return s.mutLog, s.mutGraph
}

// liveNetwork builds the standard-phi Network a mutation log's base graph
// is served as.
func liveNetwork(g *graph.Graph) *core.Network {
	return &core.Network{
		Graph: g,
		Label: fmt.Sprintf("live(n=%d,fp=%016x)", g.N(), g.Fingerprint()),
		NewObjective: func(t int) route.Objective {
			return route.NewStandard(g, t)
		},
		StandardPhi: true,
	}
}

// InstallCompacted hot-swaps a compacted snapshot into the mutable graph
// slot: a fresh Network over the folded base, carrying the tail-replayed
// overlay, installed through the same copy-on-write map /admin/swap uses —
// in-flight requests keep routing on the pre-compaction view, which is
// routing-identical by construction. Wire it as the mutation log's
// OnCompact hook (it is called under the log's lock and does not call back
// into the log).
func (s *Server) InstallCompacted(base *graph.Graph, ov *graph.Overlay, snapshot string) {
	s.mutMu.Lock()
	name := s.mutGraph
	s.mutMu.Unlock()
	if name == "" {
		return
	}
	nw := liveNetwork(base)
	if err := nw.SetOverlay(ov); err != nil {
		// The log hands us the overlay over the base it hands us; a mismatch
		// is a bug, not a runtime condition.
		s.logger.Error("compacted overlay rejected", "err", err)
		return
	}
	s.AddNetwork(name, nw)
	s.swaps.Add(1)
	s.compactSwaps.Add(1)
	s.logger.Info("compacted snapshot swapped in", "graph", name,
		"snapshot", snapshot, "n", base.N(), "m", base.M(),
		"fingerprint", fmt.Sprintf("%016x", base.Fingerprint()))
}

// publishLive re-publishes the mutation log's current overlay onto the
// served network after a batch commits. It also heals the case where a
// background compaction committed without an OnCompact hook installed: the
// log's base has moved on, so the old network's overlay can no longer
// advance, and a fresh Network over the new base is installed instead.
func (s *Server) publishLive() {
	s.mutMu.Lock()
	log, name := s.mutLog, s.mutGraph
	s.mutMu.Unlock()
	base, ov := log.Base(), log.Overlay()
	if nw, ok := s.Network(name); ok && nw.Graph == base {
		if err := nw.SetOverlay(ov); err == nil {
			return
		}
	}
	s.InstallCompacted(base, ov, "")
}

// handleMutate serves POST /admin/mutate: decode, apply through the
// journaled mutation log (validation → fsynced journal append → publish),
// then re-publish the overlay on the served network. The response is
// written only after the journal append — an acknowledged batch survives a
// SIGKILL. Semantically invalid batches are 422 with the failing op's
// index; the live graph is untouched by them.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	logger := obs.Logger(r.Context())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, "server draining")
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
	name := req.Graph
	if name == "" {
		name = DefaultGraph
	}
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
			logger.Info("mutate rejected", "graph", name, "ops", len(req.Ops), "err", err)
			writeError(w, http.StatusUnprocessableEntity, 0, "%v", err)
			return
		}
		// Journal or encoding failure: the batch is not durable and was not
		// published — the daemon's disk is in trouble.
		logger.Error("mutate failed", "graph", name, "err", err)
		writeError(w, http.StatusInternalServerError, 0, "%v", err)
		return
	}
	s.publishLive()
	s.mutations.Add(1)
	logger.Debug("mutate applied", "graph", name, "ops", len(req.Ops),
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
		// above), and the ack is O(batch): advertising the new position and
		// shipping to replicas start after the response is written, on
		// goroutines of their own, and a replica the push misses is healed by
		// anti-entropy.
		s.updateSelfLive()
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
	p.Family("smallworld_mutate_batches_total", "counter", "Mutation batches journaled and published.")
	p.SampleInt("smallworld_mutate_batches_total", nil, int64(st.Batches))
	p.Family("smallworld_mutate_ops_total", "counter", "Mutation ops applied across all batches.")
	p.SampleInt("smallworld_mutate_ops_total", nil, int64(st.Ops))
	p.Family("smallworld_mutate_rejected_total", "counter", "Mutation batches rejected by validation.")
	p.SampleInt("smallworld_mutate_rejected_total", nil, int64(st.Rejected))
	p.Family("smallworld_mutate_compactions_total", "counter", "Overlay compactions committed.")
	p.SampleInt("smallworld_mutate_compactions_total", nil, int64(st.Compactions))
	p.Family("smallworld_mutate_replayed_batches", "gauge", "Batches replayed from the journal at the last open.")
	p.SampleInt("smallworld_mutate_replayed_batches", nil, int64(st.Replayed))
	p.Family("smallworld_mutate_generation", "gauge", "Live journal generation (bumps at each compaction).")
	p.SampleInt("smallworld_mutate_generation", nil, int64(st.Generation))
	p.Family("smallworld_mutate_overlay_epoch", "gauge", "Published overlay epoch (applied batches since the base snapshot).")
	p.SampleInt("smallworld_mutate_overlay_epoch", nil, int64(st.Overlay.Epoch))
	p.Family("smallworld_mutate_overlay_added_vertices", "gauge", "Vertices added over the base snapshot.")
	p.SampleInt("smallworld_mutate_overlay_added_vertices", nil, int64(st.Overlay.AddedVertices))
	p.Family("smallworld_mutate_overlay_removed_vertices", "gauge", "Vertices tombstoned over the base snapshot.")
	p.SampleInt("smallworld_mutate_overlay_removed_vertices", nil, int64(st.Overlay.RemovedVertices))
	p.Family("smallworld_mutate_overlay_added_edges", "gauge", "Edges added over the base snapshot.")
	p.SampleInt("smallworld_mutate_overlay_added_edges", nil, int64(st.Overlay.AddedEdges))
	p.Family("smallworld_mutate_overlay_removed_edges", "gauge", "Edges removed over the base snapshot.")
	p.SampleInt("smallworld_mutate_overlay_removed_edges", nil, int64(st.Overlay.RemovedEdges))
	p.Family("smallworld_mutate_overlay_dirty_vertices", "gauge", "Vertices whose adjacency differs from the base.")
	p.SampleInt("smallworld_mutate_overlay_dirty_vertices", nil, int64(st.Overlay.DirtyVertices))
}
