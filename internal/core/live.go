package core

import (
	"fmt"

	"repro/internal/graph"
)

// Live overlays. A Network optionally carries a copy-on-write
// graph.Overlay published by the mutation log (internal/mutate): routing
// entry points load it once per episode (or once per batch) and see either
// the previous epoch or the next in full — never a half-applied batch.
// Overlays are only meaningful on phi networks (nil NewObjective): the
// overlay's own geometry drives the objective, so added vertices score
// exactly like base vertices, and routing over the overlay stays
// bit-identical to routing over its materialization. Custom-objective networks (phi_H, lattice
// distance, relaxed sweeps) reject live overlays instead of silently
// scoring added vertices wrong.
//
// Degradation under churn is inherited from the overlay semantics: a walk
// that reaches a tombstoned vertex reads an empty adjacency and fails as
// the existing route.FailDeadEnd class; the giant-component pool and
// fault-free BFS stretch are measured on the live overlay when one is
// attached.

// SetOverlay publishes ov as the network's live graph. ov must overlay
// nw.Graph (same base); nil detaches. Concurrent routers observe the swap
// atomically.
func (nw *Network) SetOverlay(ov *graph.Overlay) error {
	if ov != nil && ov.Base() != nw.Graph {
		return fmt.Errorf("core: overlay is layered on a different base graph")
	}
	nw.live.Store(ov)
	return nil
}

// LiveOverlay returns the attached overlay, or nil.
func (nw *Network) LiveOverlay() *graph.Overlay { return nw.live.Load() }

// LiveN returns the live vertex-id space: the overlay's N when one is
// attached, the base graph's otherwise.
func (nw *Network) LiveN() int {
	if ov := nw.live.Load(); ov != nil {
		return ov.N()
	}
	return nw.Graph.N()
}
