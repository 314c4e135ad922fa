package graph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/torus"
)

// Overlay is a copy-on-write delta over an immutable base Graph: the live
// view of a graph under mutation. It keeps the base's CSR arrays untouched
// and layers three structures on top —
//
//   - a tombstone bitset marking removed vertices (their adjacency reads
//     empty, but position and weight survive so objective scores of a
//     stale current vertex stay well-defined),
//   - per-vertex sorted add/del delta lists merged with the base CSR scan
//     on every adjacency read, and
//   - append-only position/weight extensions for vertices added after the
//     snapshot (ids continue from the base's N; tombstoned ids are never
//     reused).
//
// An Overlay is immutable after construction: mutation produces a *new*
// Overlay via Edit/Finish, and readers that loaded the old pointer keep a
// consistent view — publish through an atomic pointer and every routing
// episode sees one epoch atomically. The Epoch counts applied batches and
// increments by exactly one per Finish.
//
// Overlay satisfies route.Graph (N/Neighbors/Weight) and the geometric
// accessors objectives need (Pos/Space/Intensity/WMin), so every registered
// protocol routes over the live view unchanged; Materialize folds the delta
// into a fresh immutable Graph with bit-identical structure and scores.
type Overlay struct {
	base  *Graph
	epoch uint64

	// tomb marks removed vertices, one bit per id over [0, N()).
	tomb      []uint64
	tombCount int

	// deltas holds the adjacency changes of dirty vertices. Invariants:
	// add and del are sorted and disjoint, del only contains base edges,
	// add only non-base edges, tombstoned vertices have no entry, and an
	// entry with both lists empty is dropped — so the delta is a canonical
	// function of (base, live edge set) regardless of the op order that
	// produced it.
	deltas map[int32]*vertexDelta

	// addedPos/addedW extend the base's attribute stores for added
	// vertices: vertex base.N()+i lives at addedPos[i*dim:(i+1)*dim] with
	// weight addedW[i].
	addedPos []float64
	addedW   []float64

	// edgesAdded counts live edges absent from the base; edgesRemoved
	// counts base edges no longer live. M() = base.M() + added - removed.
	edgesAdded   int
	edgesRemoved int

	// fpOnce/fp memoize Fingerprint (the digest of the materialized
	// content, O(n+m)); the overlay is immutable so once is enough.
	fpOnce sync.Once
	fp     uint64
}

// vertexDelta is the adjacency change of one dirty vertex.
type vertexDelta struct {
	add []int32 // sorted live edges not in the base list
	del []int32 // sorted base edges no longer live
}

// NewOverlay returns the empty overlay over base: epoch 0, no delta. It is
// the state a freshly loaded snapshot serves before any mutation.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{base: base, deltas: map[int32]*vertexDelta{}}
}

// Base returns the immutable snapshot under the overlay.
func (o *Overlay) Base() *Graph { return o.base }

// Epoch returns the number of applied mutation batches since the base
// snapshot was loaded.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// Empty reports whether the overlay carries no delta at all — routing over
// an empty overlay is exactly routing over the base.
func (o *Overlay) Empty() bool {
	return o.tombCount == 0 && len(o.deltas) == 0 && len(o.addedW) == 0
}

// N returns the live vertex-id space: base vertices plus added ones.
// Tombstoned ids stay in range (their adjacency reads empty).
func (o *Overlay) N() int { return o.base.n + len(o.addedW) }

// M returns the number of live undirected edges.
func (o *Overlay) M() int { return o.base.M() + o.edgesAdded - o.edgesRemoved }

// Tombstoned reports whether v has been removed. Out-of-range ids are not
// tombstoned (callers range-check separately).
func (o *Overlay) Tombstoned(v int) bool {
	w := v >> 6
	if w < 0 || w >= len(o.tomb) {
		return false
	}
	return o.tomb[w]&(1<<(uint(v)&63)) != 0
}

// Delta returns the sorted add/del adjacency delta of v (nil, nil when v is
// clean). The slices alias internal storage and must not be modified. The
// fast-path scan behind route.GreedyCSROverlay applies them to the base CSR
// list in place, without allocating.
func (o *Overlay) Delta(v int) (add, del []int32) {
	d, ok := o.deltas[int32(v)]
	if !ok {
		return nil, nil
	}
	return d.add, d.del
}

// DirtyVertices returns the number of vertices with a non-empty adjacency
// delta — the quantity compaction thresholds watch.
func (o *Overlay) DirtyVertices() int { return len(o.deltas) }

// Neighbors returns the sorted live adjacency of v. Clean base vertices
// return the base slice without allocating; dirty and added vertices
// materialize a fresh merged slice per call (the interface-path protocols
// tolerate that; the CSR fast path merges in place via Delta).
func (o *Overlay) Neighbors(v int) []int32 {
	if o.Tombstoned(v) {
		return nil
	}
	d, ok := o.deltas[int32(v)]
	if !ok {
		if v < o.base.n {
			return o.base.Neighbors(v)
		}
		return nil
	}
	var bs []int32
	if v < o.base.n {
		bs = o.base.Neighbors(v)
	}
	out := make([]int32, 0, len(bs)-len(d.del)+len(d.add))
	ai, di := 0, 0
	for _, u := range bs {
		for di < len(d.del) && d.del[di] < u {
			di++
		}
		if di < len(d.del) && d.del[di] == u {
			continue
		}
		for ai < len(d.add) && d.add[ai] < u {
			out = append(out, d.add[ai])
			ai++
		}
		out = append(out, u)
	}
	out = append(out, d.add[ai:]...)
	return out
}

// Degree returns the live degree of v.
func (o *Overlay) Degree(v int) int {
	if o.Tombstoned(v) {
		return 0
	}
	d, ok := o.deltas[int32(v)]
	if !ok {
		if v < o.base.n {
			return o.base.Degree(v)
		}
		return 0
	}
	base := 0
	if v < o.base.n {
		base = o.base.Degree(v)
	}
	return base - len(d.del) + len(d.add)
}

// HasEdge reports whether {u, v} is a live edge.
func (o *Overlay) HasEdge(u, v int) bool {
	if o.Tombstoned(u) || o.Tombstoned(v) {
		return false
	}
	if d, ok := o.deltas[int32(u)]; ok {
		if contains(d.add, int32(v)) {
			return true
		}
		if contains(d.del, int32(v)) {
			return false
		}
	}
	return u < o.base.n && v < o.base.n && o.base.HasEdge(u, v)
}

// Weight returns the model weight of live vertex v (added vertices carry
// the weight they joined with; tombstoned vertices keep theirs).
func (o *Overlay) Weight(v int) float64 {
	if v < o.base.n {
		return o.base.Weight(v)
	}
	return o.addedW[v-o.base.n]
}

// Pos returns the position of vertex v (added vertices included).
func (o *Overlay) Pos(v int) []float64 {
	if v < o.base.n {
		return o.base.Pos(v)
	}
	dim := o.base.Space().Dim()
	i := (v - o.base.n) * dim
	return o.addedPos[i : i+dim : i+dim]
}

// Space returns the base graph's geometric space.
func (o *Overlay) Space() torus.Space { return o.base.Space() }

// Intensity returns the base model's expected vertex count — the objective
// normalization constant is a model parameter and does not drift with
// churn, which is what keeps overlay scores bit-identical to scores on the
// materialized snapshot.
func (o *Overlay) Intensity() float64 { return o.base.intensity }

// WMin returns the base model's minimum weight parameter.
func (o *Overlay) WMin() float64 { return o.base.wmin }

// Stats summarizes the delta for readiness probes and metrics.
type OverlayStats struct {
	// Epoch counts applied mutation batches since the base snapshot.
	Epoch uint64 `json:"epoch"`
	// AddedVertices / RemovedVertices count vertex-level drift.
	AddedVertices   int `json:"added_vertices"`
	RemovedVertices int `json:"removed_vertices"`
	// AddedEdges / RemovedEdges count edge drift relative to the base.
	AddedEdges   int `json:"added_edges"`
	RemovedEdges int `json:"removed_edges"`
	// DirtyVertices is the number of vertices whose adjacency differs from
	// the base — the compaction-threshold quantity.
	DirtyVertices int `json:"dirty_vertices"`
}

// Stats returns the overlay's delta summary.
func (o *Overlay) Stats() OverlayStats {
	return OverlayStats{
		Epoch:           o.epoch,
		AddedVertices:   len(o.addedW),
		RemovedVertices: o.tombCount,
		AddedEdges:      o.edgesAdded,
		RemovedEdges:    o.edgesRemoved,
		DirtyVertices:   len(o.deltas),
	}
}

// DeltaSize is the total delta volume (dirty vertices + added vertices +
// tombstones), the size compaction thresholds compare against.
func (o *Overlay) DeltaSize() int {
	return len(o.deltas) + len(o.addedW) + o.tombCount
}

// Materialize folds the overlay into a fresh immutable Graph with the same
// vertex-id space: tombstoned vertices become isolated but keep their
// position and weight, added vertices keep their ids, and every live edge
// appears in sorted CSR form. Routing on the materialized graph is
// bit-identical to routing on the overlay (same scores, same tie-breaks),
// which is what lets a compactor swap one for the other under live traffic.
func (o *Overlay) Materialize() (*Graph, error) {
	n := o.N()
	var pos *torus.Positions
	if o.base.pos != nil {
		raw := make([]float64, 0, len(o.base.pos.Raw())+len(o.addedPos))
		raw = append(raw, o.base.pos.Raw()...)
		raw = append(raw, o.addedPos...)
		var err error
		if pos, err = torus.NewPositionsRaw(o.base.Space(), raw); err != nil {
			return nil, fmt.Errorf("graph: materialize positions: %w", err)
		}
	}
	var weights []float64
	if o.base.weights != nil || len(o.addedW) > 0 {
		weights = make([]float64, 0, n)
		for v := 0; v < o.base.n; v++ {
			weights = append(weights, o.base.Weight(v))
		}
		weights = append(weights, o.addedW...)
	}
	b, err := NewBuilder(n, pos, weights, o.base.intensity, o.base.wmin)
	if err != nil {
		return nil, fmt.Errorf("graph: materialize: %w", err)
	}
	for v := 0; v < n; v++ {
		for _, u := range o.Neighbors(v) {
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.Finish(), nil
}

// Fingerprint digests the overlay's live content — the same digest
// Materialize().Fingerprint() produces, memoized because the overlay is
// immutable. Two replicas that replayed the same journal report the same
// value, and it is invariant under compaction (folding the delta into a new
// base does not change the live graph).
func (o *Overlay) Fingerprint() uint64 {
	o.fpOnce.Do(func() {
		g, err := o.Materialize()
		if err != nil {
			// Materialize only fails on attribute-store invariants the Edit
			// path already enforces; an overlay that violates them is a bug.
			panic(fmt.Sprintf("graph: overlay fingerprint: %v", err))
		}
		o.fp = g.Fingerprint()
	})
	return o.fp
}

// contains reports whether sorted s contains x.
func contains(s []int32, x int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}
