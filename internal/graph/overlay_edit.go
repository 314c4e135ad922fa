package graph

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/torus"
)

// OverlayEdit is one mutation batch under construction: a mutable
// copy-on-write view derived from a published Overlay. Ops validate
// eagerly — an invalid op errors and leaves the edit unchanged, so a
// caller can reject a whole batch atomically by discarding the edit — and
// Finish freezes the result into the next Overlay (epoch + 1) without
// touching the parent: readers of the old overlay keep a consistent view.
//
// Edits are not safe for concurrent use; the mutation log serializes them.
type OverlayEdit struct {
	parent    *Overlay
	next      *Overlay // the overlay under construction; the parent is never modified
	ownsAdded bool     // next's attribute extension is this edit's to append to
	finished  bool
}

// Edit derives a mutation batch from o. Up front it copies the delta
// table's chunk pointers (n/256 words) and the tombstone bitmap (n/64 bits);
// a chunk and a vertex's delta lists are cloned only when the batch touches
// them, and joins append to the attribute extension in place, so a batch
// costs what it touches however large the accumulated delta is.
func (o *Overlay) Edit() *OverlayEdit {
	return &OverlayEdit{parent: o, next: &Overlay{
		base:         o.base,
		epoch:        o.epoch + 1,
		tomb:         append([]uint64(nil), o.tomb...),
		tombCount:    o.tombCount,
		deltas:       deltaTable{chunks: append([]*deltaChunk(nil), o.deltas.chunks...), dirty: o.deltas.dirty},
		addedPos:     o.addedPos,
		addedW:       o.addedW,
		edgesAdded:   o.edgesAdded,
		edgesRemoved: o.edgesRemoved,
	}}
}

// N returns the live vertex-id space with this edit's ops applied so far.
func (e *OverlayEdit) N() int { return e.next.N() }

// Tombstoned reports whether v is removed with this edit's ops applied.
func (e *OverlayEdit) Tombstoned(v int) bool { return e.next.Tombstoned(v) }

// HasEdge reports whether {u, v} is live with this edit's ops applied.
func (e *OverlayEdit) HasEdge(u, v int) bool { return e.next.HasEdge(u, v) }

// Finish freezes the batch into the next Overlay. The edit must not be
// used afterwards.
func (e *OverlayEdit) Finish() *Overlay {
	if e.finished {
		panic("graph: OverlayEdit.Finish called twice")
	}
	e.finished = true
	return e.next
}

// slot returns v's table slot in a chunk this edit owns, cloning the
// parent's chunk on first touch so the parent overlay stays frozen. Chunks
// and deltas this edit made carry its epoch; a sibling edit of the same
// parent shares that number but never this table, so the stamp is ownership.
func (e *OverlayEdit) slot(v int32) **vertexDelta {
	t, epoch := &e.next.deltas, e.next.epoch
	c := int(v >> deltaChunkBits)
	for c >= len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	ch := t.chunks[c]
	if ch == nil || ch.epoch != epoch {
		owned := &deltaChunk{epoch: epoch}
		if ch != nil {
			owned.slot = ch.slot
		}
		ch, t.chunks[c] = owned, owned
	}
	return &ch.slot[v&(1<<deltaChunkBits-1)]
}

// delta returns a mutable vertexDelta for v, cloning the parent's on first
// touch.
func (e *OverlayEdit) delta(v int32) *vertexDelta {
	s := e.slot(v)
	d := *s
	switch {
	case d == nil:
		d = &vertexDelta{epoch: e.next.epoch}
		e.next.deltas.dirty++
	case d.epoch != e.next.epoch:
		d = &vertexDelta{
			epoch: e.next.epoch,
			add:   append([]int32(nil), d.add...),
			del:   append([]int32(nil), d.del...),
		}
	}
	*s = d
	return d
}

// drop removes v's delta entry, if it has one.
func (e *OverlayEdit) drop(v int32) {
	if e.next.deltas.get(int(v)) != nil {
		*e.slot(v) = nil
		e.next.deltas.dirty--
	}
}

// normalize drops v's delta entry if it became empty (the canonical form
// Fingerprint and replay equality rely on).
func (e *OverlayEdit) normalize(v int32) {
	if d := e.next.deltas.get(int(v)); d != nil && len(d.add) == 0 && len(d.del) == 0 {
		e.drop(v)
	}
}

// insertSorted inserts x into sorted s (x must not be present).
func insertSorted(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeSorted removes x from sorted s (x must be present).
func removeSorted(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// AddVertex joins a new vertex with the given position and model weight,
// isolated until AddEdge connects it. Ids are assigned sequentially from
// the live N; tombstoned ids are never reused. The position must match the
// base geometry's dimension with finite coordinates (wrapped onto the unit
// torus), and the weight must be finite and at least the model's wmin so
// the objective's normalization stays a true lower bound.
func (e *OverlayEdit) AddVertex(pos []float64, w float64) (int, error) {
	if e.next.base.pos == nil {
		return 0, fmt.Errorf("graph: add-vertex: base graph has no geometry")
	}
	dim := e.next.base.Space().Dim()
	if len(pos) != dim {
		return 0, fmt.Errorf("graph: add-vertex: position has %d coordinates, want %d", len(pos), dim)
	}
	for i, c := range pos {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, fmt.Errorf("graph: add-vertex: non-finite coordinate %d (%v)", i, c)
		}
	}
	if math.IsNaN(w) || math.IsInf(w, 0) || w < e.next.base.wmin {
		return 0, fmt.Errorf("graph: add-vertex: weight %v outside [wmin=%v, +inf)", w, e.next.base.wmin)
	}
	if !e.ownsAdded {
		// The parent reads only its own length of the shared extension, so
		// the first edit to ask may write past it in place; a sibling (a fork,
		// or the successor of a discarded edit) and an edit out of capacity
		// move to arrays of their own, with room to grow into.
		p, k := e.parent, len(e.parent.addedW)
		if cap(p.addedW) == k || cap(p.addedPos) < (k+1)*dim || !p.addedTaken.CompareAndSwap(false, true) {
			e.next.addedW = append(make([]float64, 0, 2*k+8), p.addedW...)
			e.next.addedPos = append(make([]float64, 0, (2*k+8)*dim), p.addedPos...)
		}
		e.ownsAdded = true
	}
	v := e.next.N()
	for _, c := range pos {
		e.next.addedPos = append(e.next.addedPos, torus.Wrap(c))
	}
	e.next.addedW = append(e.next.addedW, w)
	return v, nil
}

// RemoveVertex tombstones a live vertex, removing its incident live edges
// first (each surviving endpoint's delta is updated, so the departed id
// appears in no live adjacency list). The id stays in range: position and
// weight survive so a walk holding a stale reference still scores it, and
// its empty adjacency classifies that walk as a dead end.
func (e *OverlayEdit) RemoveVertex(v int) error {
	if v < 0 || v >= e.next.N() {
		return fmt.Errorf("graph: remove-vertex: vertex %d out of range (n = %d)", v, e.next.N())
	}
	if e.next.Tombstoned(v) {
		return fmt.Errorf("graph: remove-vertex: vertex %d already removed", v)
	}
	// Detach every live incident edge; the merged list is a copy, so the
	// iteration survives the delta updates below.
	for _, u := range e.next.appendNeighbors(nil, v) {
		if err := e.RemoveEdge(v, int(u)); err != nil {
			return fmt.Errorf("graph: remove-vertex %d: %w", v, err)
		}
	}
	e.drop(int32(v))
	w := v >> 6
	for w >= len(e.next.tomb) {
		e.next.tomb = append(e.next.tomb, 0)
	}
	e.next.tomb[w] |= 1 << (uint(v) & 63)
	e.next.tombCount++
	return nil
}

// AddEdge connects two live vertices. Self-loops, out-of-range ids,
// tombstoned endpoints and already-present edges are errors.
func (e *OverlayEdit) AddEdge(u, v int) error {
	if err := e.checkEndpoints("add-edge", u, v); err != nil {
		return err
	}
	if e.next.HasEdge(u, v) {
		return fmt.Errorf("graph: add-edge: edge {%d, %d} already present", u, v)
	}
	e.halfAdd(int32(u), int32(v))
	e.halfAdd(int32(v), int32(u))
	e.normalize(int32(u))
	e.normalize(int32(v))
	return nil
}

// RemoveEdge disconnects a live edge; removing an absent edge is an error.
func (e *OverlayEdit) RemoveEdge(u, v int) error {
	if err := e.checkEndpoints("remove-edge", u, v); err != nil {
		return err
	}
	if !e.next.HasEdge(u, v) {
		return fmt.Errorf("graph: remove-edge: edge {%d, %d} not present", u, v)
	}
	e.halfRemove(int32(u), int32(v))
	e.halfRemove(int32(v), int32(u))
	e.normalize(int32(u))
	e.normalize(int32(v))
	return nil
}

func (e *OverlayEdit) checkEndpoints(op string, u, v int) error {
	n := e.next.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: %s: edge {%d, %d} out of range (n = %d)", op, u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: %s: self-loop at %d", op, u)
	}
	if e.next.Tombstoned(u) || e.next.Tombstoned(v) {
		return fmt.Errorf("graph: %s: edge {%d, %d} touches a removed vertex", op, u, v)
	}
	return nil
}

// halfAdd records u→v becoming live: un-deleting a base edge cancels the
// del entry, a genuinely new edge lands in add. Edge counters tick on the
// u < v half only, so each undirected edge counts once.
func (e *OverlayEdit) halfAdd(u, v int32) {
	inBase := int(u) < e.next.base.n && int(v) < e.next.base.n && e.next.base.HasEdge(int(u), int(v))
	d := e.delta(u)
	if inBase {
		d.del = removeSorted(d.del, v)
		if u < v {
			e.next.edgesRemoved--
		}
		return
	}
	d.add = insertSorted(d.add, v)
	if u < v {
		e.next.edgesAdded++
	}
}

// halfRemove records u→v going dead: a base edge lands in del, an
// overlay-added edge cancels out of add.
func (e *OverlayEdit) halfRemove(u, v int32) {
	inBase := int(u) < e.next.base.n && int(v) < e.next.base.n && e.next.base.HasEdge(int(u), int(v))
	d := e.delta(u)
	if inBase {
		d.del = insertSorted(d.del, v)
		if u < v {
			e.next.edgesRemoved++
		}
		return
	}
	d.add = removeSorted(d.add, v)
	if u < v {
		e.next.edgesAdded--
	}
}
