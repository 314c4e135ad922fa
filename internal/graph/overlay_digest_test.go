package graph

import (
	"reflect"
	"testing"

	"repro/internal/torus"
)

// digestBaseN spans three delta-table chunks, so scripts clone, share and
// grow chunks, not only slots.
const digestBaseN = 600

// digestBase builds the base graph an edit script runs over: vertex 0 is a
// hub adjacent to a third of the graph, every vertex has three hashed
// contacts. kind 0 is the full attribute set, 1 a weightless base (a joined
// vertex then gives every base vertex weight 1 in the digest), 2 a graph
// without geometry (joins are refused, weights stay).
func digestBase(t testing.TB, kind int) *Graph {
	t.Helper()
	n := digestBaseN
	var pos *torus.Positions
	if kind != 2 {
		pos = torus.NewPositions(torus.MustSpace(2), n)
		for v := 0; v < n; v++ {
			pos.Set(v, []float64{tf(v, 1), tf(v, 2)})
		}
	}
	var weights []float64
	if kind != 1 {
		weights = make([]float64, n)
		for v := range weights {
			weights[v] = 1 + 3*tf(v, 3)
		}
	}
	b, err := NewBuilder(n, pos, weights, float64(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		if v%3 == 0 {
			b.AddEdge(0, v)
		}
		for k := 1; k <= 3; k++ {
			if u := int(tf(v, uint64(10+k)) * float64(n)); u != v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Finish()
}

// overlayState is everything an Overlay lets a reader observe, copied out:
// two states are DeepEqual exactly when no reader can tell the overlays apart.
type overlayState struct {
	Epoch      uint64
	N, M       int
	Stats      OverlayStats
	Adj        [][]int32
	Add, Del   [][]int32
	Tomb       []bool
	Pos        [][]float64
	W          []float64
	Rematerial uint64 // ReferenceFingerprint of a fresh Materialize (not the memo)
}

func snapshotOverlay(t testing.TB, o *Overlay) overlayState {
	t.Helper()
	s := overlayState{Epoch: o.Epoch(), N: o.N(), M: o.M(), Stats: o.Stats()}
	for v := 0; v < o.N(); v++ {
		add, del := o.Delta(v)
		s.Adj = append(s.Adj, append([]int32{}, o.Neighbors(v)...))
		s.Add = append(s.Add, append([]int32{}, add...))
		s.Del = append(s.Del, append([]int32{}, del...))
		s.Tomb = append(s.Tomb, o.Tombstoned(v))
		s.Pos = append(s.Pos, append([]float64{}, o.Pos(v)...))
		s.W = append(s.W, o.Weight(v))
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	s.Rematerial = ReferenceFingerprint(g)
	return s
}

// checkOverlay holds a finished overlay to the naive reference graph and to
// the digest contract.
func checkOverlay(t testing.TB, o *Overlay, ref *refGraph) {
	t.Helper()
	base := o.Base()
	dirty, tombs := 0, 0
	for v := 0; v < o.N(); v++ {
		want := sliceOrEmpty(ref.neighbors(v))
		if got := sliceOrEmpty(o.Neighbors(v)); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: Neighbors(%d) = %v, want %v", o.Epoch(), v, got, want)
		}
		if o.Degree(v) != len(want) {
			t.Fatalf("epoch %d: Degree(%d) = %d, want %d", o.Epoch(), v, o.Degree(v), len(want))
		}
		if o.Tombstoned(v) != ref.tomb[v] {
			t.Fatalf("epoch %d: Tombstoned(%d) = %v", o.Epoch(), v, o.Tombstoned(v))
		}
		var inBase []int32
		if v < base.N() {
			inBase = base.Neighbors(v)
		}
		add, del := o.Delta(v)
		isDirty := !ref.tomb[v] && !reflect.DeepEqual(want, sliceOrEmpty(inBase))
		if isDirty != (len(add)+len(del) > 0) {
			t.Fatalf("epoch %d: vertex %d dirty=%v but delta is +%v -%v", o.Epoch(), v, isDirty, add, del)
		}
		if isDirty {
			dirty++
		}
		if ref.tomb[v] {
			tombs++
		}
	}
	added := o.N() - base.N()
	if o.DirtyVertices() != dirty || o.DeltaSize() != dirty+added+tombs || o.Empty() != (dirty+added+tombs == 0) {
		t.Fatalf("epoch %d: DirtyVertices=%d DeltaSize=%d Empty=%v, want %d dirty + %d added + %d removed",
			o.Epoch(), o.DirtyVertices(), o.DeltaSize(), o.Empty(), dirty, added, tombs)
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < o.N(); v++ {
		if g.Weight(v) != o.Weight(v) || !reflect.DeepEqual(g.Pos(v), o.Pos(v)) {
			t.Fatalf("epoch %d: materialized vertex %d is (%v, %v), the overlay reads (%v, %v)",
				o.Epoch(), v, g.Pos(v), g.Weight(v), o.Pos(v), o.Weight(v))
		}
	}
	want := ReferenceFingerprint(g)
	if got := o.Fingerprint(); got != want {
		t.Fatalf("epoch %d: streaming digest %016x, Materialize + reference digest %016x", o.Epoch(), got, want)
	}
	if got := g.Fingerprint(); got != want {
		t.Fatalf("epoch %d: Graph.Fingerprint %016x, reference digest %016x", o.Epoch(), got, want)
	}
}

// runEditScript interprets script as batches of overlay edits over
// digestBase(script[0] % 3), mirrored on the naive reference graph, which
// also decides whether each op must be accepted or refused. Ops are five
// bytes: a kind and two 16-bit operands. After every batch the new overlay is
// checked (checkOverlay) and the overlays before it must read byte for byte
// as they did before the edit.
func runEditScript(t testing.TB, script []byte) {
	if len(script) == 0 {
		return
	}
	base := digestBase(t, int(script[0])%3)
	hasGeometry := base.Positions() != nil
	script = script[1:]
	if len(script) > 5*400 {
		script = script[:5*400]
	}
	o, ref, n := NewOverlay(base), newRefGraph(base), base.N()
	type frozen struct {
		o    *Overlay
		want overlayState
	}
	history := []frozen{{o, snapshotOverlay(t, o)}}
	e := o.Edit()

	mustAccept := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s refused: %v", what, err)
		}
	}
	mustRefuse := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted, the reference graph refuses it", what)
		}
	}
	join := func(x, y float64) int {
		v, err := e.AddVertex([]float64{x, y}, 1+x)
		if !hasGeometry {
			mustRefuse("add-vertex without geometry", err)
			return -1
		}
		mustAccept("add-vertex", err)
		if v != n {
			t.Fatalf("add-vertex assigned id %d, want %d", v, n)
		}
		ref.adj[v] = map[int]bool{}
		n++
		return v
	}
	addEdge := func(u, v int) {
		err := e.AddEdge(u, v)
		if u == v || ref.tomb[u] || ref.tomb[v] || ref.adj[u][v] {
			mustRefuse("add-edge", err)
			return
		}
		mustAccept("add-edge", err)
		ref.adj[u][v], ref.adj[v][u] = true, true
	}
	removeEdge := func(u, v int) {
		err := e.RemoveEdge(u, v)
		if u == v || ref.tomb[u] || ref.tomb[v] || !ref.adj[u][v] {
			mustRefuse("remove-edge", err)
			return
		}
		mustAccept("remove-edge", err)
		delete(ref.adj[u], v)
		delete(ref.adj[v], u)
	}
	removeVertex := func(v int) {
		err := e.RemoveVertex(v)
		if ref.tomb[v] {
			mustRefuse("remove-vertex", err)
			return
		}
		mustAccept("remove-vertex", err)
		for u := range ref.adj[v] {
			delete(ref.adj[u], v)
		}
		ref.adj[v], ref.tomb[v] = map[int]bool{}, true
	}
	commit := func() {
		o = e.Finish()
		checkOverlay(t, o, ref)
		for _, h := range history {
			if got := snapshotOverlay(t, h.o); !reflect.DeepEqual(got, h.want) {
				t.Fatalf("overlay of epoch %d changed under the edit that made epoch %d", h.o.Epoch(), o.Epoch())
			}
		}
		// A sibling edit forked off the parent joins a vertex of its own at the
		// id the batch above may have assigned: neither may see the other's.
		parent := history[len(history)-1].o
		if history = append(history, frozen{o, snapshotOverlay(t, o)}); len(history) > 3 {
			history = history[1:]
		}
		if hasGeometry {
			fork := parent.Edit()
			w, err := fork.AddVertex([]float64{0.125, 0.875}, 7)
			mustAccept("fork add-vertex", err)
			sib := fork.Finish()
			if sib.Weight(w) != 7 || !reflect.DeepEqual(sib.Pos(w), []float64{0.125, 0.875}) || sib.N() != parent.N()+1 {
				t.Fatalf("fork of epoch %d reads its join as (%v, %v)", parent.Epoch(), sib.Pos(w), sib.Weight(w))
			}
			for _, h := range history {
				if got := snapshotOverlay(t, h.o); !reflect.DeepEqual(got, h.want) {
					t.Fatalf("overlay of epoch %d changed under a fork of epoch %d", h.o.Epoch(), parent.Epoch())
				}
			}
		}
		e = o.Edit()
	}

	for ; len(script) >= 5; script = script[5:] {
		a := int(script[1])<<8 | int(script[2])
		b := int(script[3])<<8 | int(script[4])
		u, v := a%n, b%n
		switch script[0] % 8 {
		case 0:
			join(float64(a)/65536, float64(b)/65536)
		case 1:
			removeVertex(u)
		case 2:
			addEdge(u, v)
		case 3: // remove u's b-th live edge, when it has one
			if ns := ref.neighbors(u); len(ns) > 0 {
				removeEdge(u, int(ns[b%len(ns)]))
			} else {
				removeEdge(u, v)
			}
		case 4:
			commit()
		case 5: // the vertex of largest live degree leaves
			hub := 0
			for w := 1; w < n; w++ {
				if len(ref.adj[w]) > len(ref.adj[hub]) {
					hub = w
				}
			}
			removeVertex(hub)
		case 6: // a join wired to a contact that may have left already
			if w := join(float64(b)/65536, float64(a)/65536); w >= 0 {
				addEdge(w, u)
			}
		case 7: // add an edge and take it back: the delta must cancel
			before := e.next.DirtyVertices()
			if u != v && !ref.tomb[u] && !ref.tomb[v] && !ref.adj[u][v] {
				addEdge(u, v)
				removeEdge(u, v)
				if after := e.next.DirtyVertices(); after != before {
					t.Fatalf("add+remove of {%d, %d} left %d dirty vertices, was %d", u, v, after, before)
				}
			}
		}
	}
	commit()
}

// editScriptSeeds are the committed starting points of FuzzOverlayDigest,
// one per case the digest has to get right.
var editScriptSeeds = [][]byte{
	// the hub leaves, then a join is wired to it (refused) and to a live contact
	{0, 5, 0, 0, 0, 0, 4, 0, 0, 0, 0, 6, 0, 0, 0, 9, 6, 0, 7, 0, 9, 4, 0, 0, 0, 0},
	// weightless base: a join makes every base weight an explicit 1
	{1, 0, 64, 0, 192, 0, 2, 2, 88, 0, 5, 4, 0, 0, 0, 0, 1, 2, 88, 0, 0},
	// no geometry: joins refused, edge edits and removals digest without positions
	{2, 0, 1, 2, 3, 4, 3, 0, 3, 0, 0, 1, 0, 9, 0, 0, 4, 0, 0, 0, 0, 7, 0, 10, 1, 44},
	// add-then-remove back to clean across two batches, in two chunks
	{0, 2, 0, 10, 2, 0, 4, 0, 0, 0, 0, 3, 0, 10, 0, 0, 7, 1, 20, 2, 30, 4, 0, 0, 0, 0},
}

// FuzzOverlayDigest drives random edit scripts through OverlayEdit and
// requires, after every batch: the streaming digest equal to the reference
// digest of the materialized graph, DirtyVertices/DeltaSize/Empty exact
// against a naive model, and every earlier overlay unchanged (aliasing).
func FuzzOverlayDigest(f *testing.F) {
	for _, s := range editScriptSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runEditScript(t, script) })
}

// TestOverlayDigestProperty runs the same property over seeded scripts long
// enough to dirty every chunk, remove hubs repeatedly and rejoin on contacts
// that have left, on each of the three base kinds.
func TestOverlayDigestProperty(t *testing.T) {
	for _, s := range editScriptSeeds {
		runEditScript(t, s)
	}
	rounds := 9
	if testing.Short() {
		rounds = 3
	}
	for seed := 0; seed < rounds; seed++ {
		script := []byte{byte(seed)}
		for i := 0; i < 5*300; i++ {
			script = append(script, byte(tf(seed*4096+i, 91)*256))
		}
		runEditScript(t, script)
	}
}
