package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	deltas deltaTable

	// addedPos/addedW extend the base's attribute stores for added
	// vertices: vertex base.N()+i lives at addedPos[i*dim:(i+1)*dim] with
	// weight addedW[i]. Versions share the arrays and read only their own
	// length of them; addedTaken is set by the one child edit allowed to
	// append past this overlay's length in place (OverlayEdit.AddVertex).
	addedPos   []float64
	addedW     []float64
	addedTaken atomic.Bool

	// edgesAdded counts live edges absent from the base; edgesRemoved
	// counts base edges no longer live. M() = base.M() + added - removed.
	edgesAdded   int
	edgesRemoved int

	// fpOnce/fp memoize Fingerprint (the digest of the live content,
	// O(n+m)); the overlay is immutable so once is enough.
	fpOnce sync.Once
	fp     uint64
}

// vertexDelta is the adjacency change of one dirty vertex. epoch is the
// epoch of the overlay whose edit created this value: that edit may write it
// in place, every later one clones it first.
type vertexDelta struct {
	epoch uint64
	add   []int32 // sorted live edges not in the base list
	del   []int32 // sorted base edges no longer live
}

// deltaChunkBits fixes the chunk size of the delta table at 256 slots: a
// chunk is 2 KiB, so the handful a batch touches copy in well under a
// microsecond each, and the chunk-pointer slice an edit copies is n/256
// words — 79 at n = 20 000, 3 907 at n = 10⁶.
const deltaChunkBits = 8

// deltaChunk holds the deltas of 256 consecutive vertex ids (nil = clean),
// stamped like a vertexDelta with the epoch of the edit that owns it.
type deltaChunk struct {
	epoch uint64
	slot  [1 << deltaChunkBits]*vertexDelta
}

// deltaTable is the persistent vertex → delta table: chunks indexed by
// v >> deltaChunkBits, shared between overlay versions and cloned by an edit
// on first touch. A nil or missing chunk is 256 clean vertices. dirty counts
// the non-nil slots, so the size queries stay O(1) and exact.
type deltaTable struct {
	chunks []*deltaChunk
	dirty  int
}

// get returns v's delta, nil when v is clean or out of range.
func (t *deltaTable) get(v int) *vertexDelta {
	if c := v >> deltaChunkBits; uint(c) < uint(len(t.chunks)) && t.chunks[c] != nil {
		return t.chunks[c].slot[v&(1<<deltaChunkBits-1)]
	}
	return nil
}

// NewOverlay returns the empty overlay over base: epoch 0, no delta. It is
// the state a freshly loaded snapshot serves before any mutation.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{base: base}
}

// Base returns the immutable snapshot under the overlay.
func (o *Overlay) Base() *Graph { return o.base }

// Epoch returns the number of applied mutation batches since the base
// snapshot was loaded.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// Empty reports whether the overlay carries no delta at all — routing over
// an empty overlay is exactly routing over the base.
func (o *Overlay) Empty() bool {
	return o.tombCount == 0 && o.deltas.dirty == 0 && len(o.addedW) == 0
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
	if d := o.deltas.get(v); d != nil {
		return d.add, d.del
	}
	return nil, nil
}

// DirtyVertices returns the number of vertices with a non-empty adjacency
// delta — the quantity compaction thresholds watch.
func (o *Overlay) DirtyVertices() int { return o.deltas.dirty }

// Neighbors returns the sorted live adjacency of v. Clean base vertices
// return the base slice without allocating; dirty and added vertices
// materialize a fresh merged slice per call (the interface-path protocols
// tolerate that; the CSR fast path merges in place via Delta).
func (o *Overlay) Neighbors(v int) []int32 {
	if o.deltas.get(v) == nil {
		if v < o.base.n && !o.Tombstoned(v) {
			return o.base.Neighbors(v)
		}
		return nil
	}
	return o.appendNeighbors(make([]int32, 0, o.Degree(v)), v)
}

// appendNeighbors appends the sorted live adjacency of v to dst: the base
// list minus del, merged with add.
func (o *Overlay) appendNeighbors(dst []int32, v int) []int32 {
	if o.Tombstoned(v) {
		return dst
	}
	var bs []int32
	if v < o.base.n {
		bs = o.base.Neighbors(v)
	}
	d := o.deltas.get(v)
	if d == nil {
		return append(dst, bs...)
	}
	ai, di := 0, 0
	for _, u := range bs {
		for di < len(d.del) && d.del[di] < u {
			di++
		}
		if di < len(d.del) && d.del[di] == u {
			continue
		}
		for ai < len(d.add) && d.add[ai] < u {
			dst = append(dst, d.add[ai])
			ai++
		}
		dst = append(dst, u)
	}
	return append(dst, d.add[ai:]...)
}

// Degree returns the live degree of v.
func (o *Overlay) Degree(v int) int {
	if o.Tombstoned(v) {
		return 0
	}
	deg := 0
	if v < o.base.n {
		deg = o.base.Degree(v)
	}
	if d := o.deltas.get(v); d != nil {
		deg += len(d.add) - len(d.del)
	}
	return deg
}

// HasEdge reports whether {u, v} is a live edge.
func (o *Overlay) HasEdge(u, v int) bool {
	if o.Tombstoned(u) || o.Tombstoned(v) {
		return false
	}
	if d := o.deltas.get(u); d != nil {
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
		DirtyVertices:   o.deltas.dirty,
	}
}

// DeltaSize is the total delta volume (dirty vertices + added vertices +
// tombstones), the size compaction thresholds compare against.
func (o *Overlay) DeltaSize() int {
	return o.deltas.dirty + len(o.addedW) + o.tombCount
}

// weightParts returns the live weight store as the two runs it is kept in —
// the base's weights and the added vertices' — or nils when the live graph
// is unweighted. A weightless base that vertices joined reads weight 1 on
// every base vertex, exactly as Graph.Weight does.
func (o *Overlay) weightParts() (base, added []float64) {
	base = o.base.weights
	if base == nil && len(o.addedW) > 0 {
		base = make([]float64, o.base.n)
		for v := range base {
			base[v] = 1
		}
	}
	return base, o.addedW
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
	if bw, aw := o.weightParts(); bw != nil {
		weights = append(append(make([]float64, 0, n), bw...), aw...)
	}
	b, err := NewBuilder(n, pos, weights, o.base.intensity, o.base.wmin)
	if err != nil {
		return nil, fmt.Errorf("graph: materialize: %w", err)
	}
	var buf []int32
	for v := 0; v < n; v++ {
		buf = o.appendNeighbors(buf[:0], v)
		for _, u := range buf {
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.Finish(), nil
}

// Fingerprint digests the overlay's live content — the same digest
// Materialize().Fingerprint() produces, streamed through the one layout in
// fingerprint.go without building that graph, and memoized because the
// overlay is immutable. Two replicas that replayed the same journal report
// the same value, and it is invariant under compaction (folding the delta
// into a new base does not change the live graph).
func (o *Overlay) Fingerprint() uint64 {
	o.fpOnce.Do(func() {
		src := digestSource{
			n: o.N(), arcs: 2 * o.M(), intensity: o.base.intensity, wmin: o.base.wmin,
			degree: o.Degree, appendNeighbors: o.appendNeighbors,
		}
		if o.base.pos != nil {
			src.dim = o.base.Space().Dim()
			src.pos = [2][]float64{o.base.pos.Raw(), o.addedPos}
		}
		src.weights[0], src.weights[1] = o.weightParts()
		o.fp = src.digest()
	})
	return o.fp
}

// contains reports whether sorted s contains x.
func contains(s []int32, x int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}
