package cluster

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/torus"
)

// testGraph builds a small geometric graph with deterministic pseudo-random
// positions (splitmix64 stream).
func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	space := torus.MustSpace(2)
	pos := torus.NewPositions(space, n)
	x := uint64(123)
	next := func() float64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) * 0x1p-53
	}
	buf := make([]float64, 2)
	for i := 0; i < n; i++ {
		buf[0], buf[1] = next(), next()
		pos.Set(i, buf)
	}
	b, err := graph.NewBuilder(n, pos, nil, float64(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i)
	}
	return b.Finish()
}

func mustPrefix(t *testing.T, s string) torus.Prefix {
	t.Helper()
	p, err := torus.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNodePartition builds the 3-shard node set over one graph and checks
// the ownership masks partition the vertex set and OwnersOf resolves every
// foreign vertex to the peers whose masks own it.
func TestNodePartition(t *testing.T) {
	g := testGraph(t, 300)
	clk := newFakeClock()
	specs := []string{"0", "10", "11"}
	nodes := make([]*Node, len(specs))
	for i, spec := range specs {
		n, err := NewNode(g, mustPrefix(t, spec), fmt.Sprintf("n%d:1", i), Config{Now: clk.now})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	// Full static mesh.
	for _, n := range nodes {
		for _, p := range nodes {
			if p != n {
				n.Members().Add(p.Self())
			}
		}
	}

	total := 0
	for _, n := range nodes {
		total += n.OwnedCount()
	}
	if total != g.N() {
		t.Fatalf("shards own %d vertices total, want %d", total, g.N())
	}

	for v := 0; v < g.N(); v++ {
		owners := 0
		for _, n := range nodes {
			if n.Owned(v) {
				owners++
				continue
			}
			peers := n.OwnersOf(v)
			if len(peers) == 0 {
				t.Fatalf("node %s: no owner for foreign vertex %d", n.Self().ID, v)
			}
			// Every resolved peer's node must actually own v.
			for _, peer := range peers {
				for _, o := range nodes {
					if o.Self().ID == peer.ID && !o.Owned(v) {
						t.Fatalf("node %s resolved vertex %d to %s, which does not own it",
							n.Self().ID, v, peer.ID)
					}
				}
			}
		}
		if owners != 1 {
			t.Fatalf("vertex %d owned by %d shards, want 1", v, owners)
		}
	}
}

// TestNodeRoutesCore checks every shard routes the core locally while
// OwnedCount stays the Morton share: the counts still sum to n, a vertex
// outside the core is routed by its Morton owner alone, and OwnersOf still
// resolves a core vertex to the one shard whose prefix matches it.
func TestNodeRoutesCore(t *testing.T) {
	base := testGraph(t, 300)
	// Vertices 0..4 are the heavy clique; 5 is next in order and misses 0.
	w := make([]float64, base.N())
	for v := range w {
		w[v] = 1
		if v < 5 {
			w[v] = float64(100 - v)
		}
	}
	b, err := graph.NewBuilder(base.N(), base.Positions(), w, float64(base.N()), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		for u := 0; u < v; u++ {
			b.AddEdge(u, v)
		}
	}
	for v := 5; v < base.N(); v++ {
		b.AddEdge(v-1, v)
	}
	g := b.Finish()
	if core := graph.Core(g); len(core) != 5 {
		t.Fatalf("core %v, want vertices 0..4", core)
	}

	clk := newFakeClock()
	specs := []string{"0", "10", "11"}
	nodes := make([]*Node, len(specs))
	total := 0
	for i, spec := range specs {
		n, err := NewNode(g, mustPrefix(t, spec), fmt.Sprintf("n%d:1", i), Config{Now: clk.now})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		total += n.OwnedCount()
	}
	if total != g.N() {
		t.Fatalf("shards own %d vertices total, want %d", total, g.N())
	}
	for _, n := range nodes {
		for _, p := range nodes {
			if p != n {
				n.Members().Add(p.Self())
			}
		}
	}
	codes, bits, err := graph.MortonCodes(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, n := range nodes {
			morton := n.Shard().Matches(codes[v], bits)
			if n.Owned(v) != (morton || v < 5) {
				t.Fatalf("node %s: Owned(%d) = %v, Morton share %v", n.Self().ID, v, n.Owned(v), morton)
			}
			if v < 5 && !morton {
				if peers := n.OwnersOf(v); len(peers) != 1 || !mustPrefix(t, peers[0].Shard).Matches(codes[v], bits) {
					t.Fatalf("node %s resolved core vertex %d to %v", n.Self().ID, v, peers)
				}
			}
		}
	}
}

// TestOwnersOfExcludesMismatchedFingerprint checks a peer serving a
// different snapshot is never resolved as an owner.
func TestOwnersOfExcludesMismatchedFingerprint(t *testing.T) {
	g := testGraph(t, 100)
	clk := newFakeClock()
	n, err := NewNode(g, mustPrefix(t, "0"), "a:1", Config{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	n.Members().Add(Peer{ID: "b:1", Shard: "1", Fingerprint: "deadbeef00000000"})
	for v := 0; v < g.N(); v++ {
		if n.Owned(v) {
			continue
		}
		if peers := n.OwnersOf(v); len(peers) > 0 {
			t.Fatalf("vertex %d resolved to mismatched-snapshot peer %s", v, peers[0].ID)
		}
	}
}

// TestOwnersOfExcludesDown checks a down peer is never resolved, the
// shard-unreachable precondition.
func TestOwnersOfExcludesDown(t *testing.T) {
	g := testGraph(t, 100)
	clk := newFakeClock()
	n, err := NewNode(g, mustPrefix(t, "0"), "a:1", Config{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	self := n.Self()
	n.Members().Add(Peer{ID: "b:1", Shard: "1", Fingerprint: self.Fingerprint})

	foreign := -1
	for v := 0; v < g.N(); v++ {
		if !n.Owned(v) {
			foreign = v
			break
		}
	}
	if foreign < 0 {
		t.Skip("prefix 0 owns everything in this draw")
	}
	if peers := n.OwnersOf(foreign); len(peers) != 1 || peers[0].ID != "b:1" {
		t.Fatalf("live peer not resolved: %v", peers)
	}
	clk.advance(11e9)
	if peers := n.OwnersOf(foreign); len(peers) > 0 {
		t.Fatalf("down peer %s still resolved", peers[0].ID)
	}
}

// TestNewNodeRejectsEmptyShard checks a prefix owning zero vertices errors.
func TestNewNodeRejectsEmptyShard(t *testing.T) {
	g := testGraph(t, 20)
	clk := newFakeClock()
	// A 30-bit-deep all-ones prefix will own nothing with n=20 points w.h.p.
	spec := ""
	for i := 0; i < 30; i++ {
		spec += "1"
	}
	if _, err := NewNode(g, mustPrefix(t, spec), "a:1", Config{Now: clk.now}); err == nil {
		t.Fatal("empty shard accepted")
	}
}
