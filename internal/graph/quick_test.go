package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// TestQuickBFSTriangleInequality: BFS distances satisfy the triangle
// inequality through any intermediate vertex.
func TestQuickBFSTriangleInequality(t *testing.T) {
	f := func(seed uint32) bool {
		rng := xrand.New(uint64(seed))
		n := 5 + rng.IntN(20)
		b, err := NewBuilder(n, nil, nil, float64(n), 1)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(0.25) {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.Finish()
		dists := make([][]int32, n)
		for s := 0; s < n; s++ {
			dists[s] = BFS(g, s)
		}
		for a := 0; a < n; a++ {
			for c := 0; c < n; c++ {
				if dists[a][c] < 0 {
					continue
				}
				// Symmetry.
				if dists[c][a] != dists[a][c] {
					return false
				}
				for m := 0; m < n; m++ {
					if dists[a][m] >= 0 && dists[m][c] >= 0 &&
						dists[a][c] > dists[a][m]+dists[m][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDegreeSumEqualsTwiceEdges: the handshake lemma survives arbitrary
// duplicate-laden edge lists.
func TestQuickDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 30
		b, err := NewBuilder(n, nil, nil, n, 1)
		if err != nil {
			return false
		}
		for _, p := range pairs {
			u := int(p) % n
			v := int(p>>8) % n
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Finish()
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
