// Package graph provides the compact graph representation and the classical
// graph algorithms the experiments need: CSR adjacency with per-vertex
// geometric positions and weights, BFS shortest paths, connected components,
// and structural statistics (degree distribution, clustering, distances in
// the giant component).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/torus"
)

// Graph is an undirected graph in compressed-sparse-row form with vertex
// attributes from the geometric random-graph models: a position on the torus
// and a weight. It is immutable after construction.
type Graph struct {
	n       int
	offsets []int32
	adj     []int32
	pos     *torus.Positions
	weights []float64
	// Intensity is the expected number of vertices the model was sampled
	// with (the parameter n of the GIRG Poisson point process); objective
	// functions normalize by it. For fixed-size models it equals N().
	intensity float64
	wmin      float64

	// fpOnce/fp memoize Fingerprint: the graph is immutable after
	// construction, and readiness probes read the digest per request.
	fpOnce sync.Once
	fp     uint64

	// unitOnce/unit memoize UnitCoords the same way; the certificate is a
	// property of the content, not part of it, so it stays out of the digest.
	unitOnce sync.Once
	unit     bool
}

// Builder accumulates edges before freezing them into a Graph. Edges may be
// added in any order; duplicates and self-loops are rejected at Finish.
type Builder struct {
	n       int
	pos     *torus.Positions
	weights []float64
	src     []int32
	dst     []int32

	intensity float64
	wmin      float64
}

// NewBuilder creates a builder for a graph on n vertices with the given
// attribute stores. intensity is the model's expected vertex count and wmin
// the minimum weight (both used by routing objectives); pass float64(n) and
// 1 for models without those notions.
func NewBuilder(n int, pos *torus.Positions, weights []float64, intensity, wmin float64) (*Builder, error) {
	if pos != nil && pos.Len() != n {
		return nil, fmt.Errorf("graph: positions store has %d points, want %d", pos.Len(), n)
	}
	if weights != nil && len(weights) != n {
		return nil, fmt.Errorf("graph: weight store has %d entries, want %d", len(weights), n)
	}
	if intensity <= 0 {
		return nil, fmt.Errorf("graph: non-positive intensity %v", intensity)
	}
	if wmin <= 0 {
		return nil, fmt.Errorf("graph: non-positive wmin %v", wmin)
	}
	return &Builder{
		n:         n,
		pos:       pos,
		weights:   weights,
		intensity: intensity,
		wmin:      wmin,
	}, nil
}

// AddEdge records the undirected edge {u, v}. It panics on out-of-range
// vertices or self-loops; generators must not emit either.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic("graph: vertex out of range")
	}
	b.src = append(b.src, int32(u))
	b.dst = append(b.dst, int32(v))
}

// Grow reserves room for m more edges, for a caller that knows the count up
// front: AddEdge's append growth otherwise over-allocates and copies.
func (b *Builder) Grow(m int) {
	b.src = slices.Grow(b.src, m)
	b.dst = slices.Grow(b.dst, m)
}

// EdgeCount returns the number of edges recorded so far.
func (b *Builder) EdgeCount() int { return len(b.src) }

// Finish freezes the builder into a Graph, deduplicating parallel edges.
func (b *Builder) Finish() *Graph {
	checkEdgeCount(len(b.src))
	g := &Graph{
		n:         b.n,
		pos:       b.pos,
		weights:   b.weights,
		intensity: b.intensity,
		wmin:      b.wmin,
	}
	// Degree counting pass (both directions).
	deg := make([]int32, b.n+1)
	for i := range b.src {
		deg[b.src[i]+1]++
		deg[b.dst[i]+1]++
	}
	for i := 0; i < b.n; i++ {
		deg[i+1] += deg[i]
	}
	g.offsets = deg
	adj := make([]int32, len(b.src)*2)
	fill := make([]int32, b.n)
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		adj[g.offsets[u]+fill[u]] = v
		fill[u]++
		adj[g.offsets[v]+fill[v]] = u
		fill[v]++
	}
	g.adj = adj
	g.sortAndDedup()
	return g
}

// checkEdgeCount panics when m edges make more adjacency entries than the
// CSR form's int32 offsets can index, before Finish allocates anything; the
// offsets would wrap silently.
func checkEdgeCount(m int) {
	if 2*m > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges make %d adjacency entries, past the int32 offsets of the CSR form", m, 2*m))
	}
}

// sortAndDedup sorts each adjacency list and removes duplicate edges,
// rebuilding offsets compactly.
func (g *Graph) sortAndDedup() {
	newAdj := g.adj[:0]
	newOffsets := make([]int32, g.n+1)
	read := int32(0)
	for v := 0; v < g.n; v++ {
		end := g.offsets[v+1]
		list := g.adj[read:end]
		read = end
		slices.Sort(list)
		newOffsets[v] = int32(len(newAdj))
		var prev int32 = -1
		for _, u := range list {
			if u != prev {
				newAdj = append(newAdj, u)
				prev = u
			}
		}
	}
	newOffsets[g.n] = int32(len(newAdj))
	g.offsets = newOffsets
	g.adj = newAdj
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// CSR exposes the raw compressed-sparse-row arrays: offsets has n+1 entries
// and adj[offsets[v]:offsets[v+1]] is the sorted adjacency list of v. Both
// slices alias internal storage and must not be modified; route's greedy
// walk scans them directly, next to Positions().Raw() and Weights(), to skip
// interface dispatch.
func (g *Graph) CSR() (offsets, adj []int32) { return g.offsets, g.adj }

// HasEdge reports whether {u, v} is an edge, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	list := g.Neighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(v) })
	return i < len(list) && list[i] == int32(v)
}

// Pos returns the position of vertex v, or nil if the graph has no geometry.
func (g *Graph) Pos(v int) []float64 {
	if g.pos == nil {
		return nil
	}
	return g.pos.At(v)
}

// UnitCoords certifies that the graph has geometry and every coordinate is a
// number in [0, 1) — true of every generator's output, not of every file a
// decoder accepts (the HRG-to-GIRG angle map may emit exactly 1.0) or every
// store handed to NewBuilder. route's scan kernel takes the max norm with
// the max builtin instead of compare-and-branch, which is exact only under
// this certificate (max propagates a NaN the compare skips); an uncertified
// graph scans through Space.DistPow. One O(n*dim) pass, memoized.
func (g *Graph) UnitCoords() bool {
	g.unitOnce.Do(func() {
		if g.pos == nil {
			return
		}
		for _, c := range g.pos.Raw() {
			if !(c >= 0 && c < 1) { // also false for NaN
				return
			}
		}
		g.unit = true
	})
	return g.unit
}

// Positions returns the underlying position store (may be nil).
func (g *Graph) Positions() *torus.Positions { return g.pos }

// Weight returns the model weight of vertex v (1 if the graph is
// unweighted).
func (g *Graph) Weight(v int) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[v]
}

// Weights returns the underlying weight slice (may be nil).
func (g *Graph) Weights() []float64 { return g.weights }

// Intensity returns the model's expected vertex count.
func (g *Graph) Intensity() float64 { return g.intensity }

// WMin returns the model's minimum weight parameter.
func (g *Graph) WMin() float64 { return g.wmin }

// Space returns the geometric space of the graph; it panics if the graph
// has no geometry.
func (g *Graph) Space() torus.Space {
	if g.pos == nil {
		panic("graph: no geometry")
	}
	return g.pos.Space()
}

// Dist returns the torus distance between vertices u and v.
func (g *Graph) Dist(u, v int) float64 {
	return g.pos.Dist(u, v)
}
