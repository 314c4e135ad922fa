// Package graph provides the compact graph representation and the classical
// graph algorithms the experiments need: CSR adjacency with per-vertex
// geometric positions and weights, BFS shortest paths, connected components,
// and structural statistics (degree distribution, clustering, distances in
// the giant component).
package graph

import (
	"cmp"
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
	// orderOnce/order memoize WeightOrder, likewise outside the digest.
	orderOnce sync.Once
	order     []int32
	// giantOnce/giant memoize Giant the same way.
	giantOnce sync.Once
	giant     []int
}

// Builder accumulates edges before freezing them into a Graph. Edges may be
// added in any order; duplicates are dropped at Finish. Each edge is stored
// once, as two little-endian vertex ids packed at the byte width n-1 needs
// (idWidth), in fixed-size chunks that are appended to and never regrown,
// so the edge list costs 2*w bytes an edge and is never copied.
type Builder struct {
	n       int
	pos     *torus.Positions
	weights []float64

	w    int      // bytes per packed vertex id
	full [][]byte // filled chunks
	tail []byte   // the chunk being filled, cap chunkEdges*2*w; nil before the first edge and after Finish
	m    int      // edges recorded
	done bool

	intensity float64
	wmin      float64
}

// chunkEdges is the number of edges one chunk holds: 16-64 KiB by width,
// small against any graph the store matters for and large enough that the
// chunk list itself stays short.
const chunkEdges = 1 << 13

// NewBuilder creates a builder for a graph on n vertices with the given
// attribute stores. intensity is the model's expected vertex count and wmin
// the minimum weight (both used by routing objectives); pass float64(n) and
// 1 for models without those notions.
func NewBuilder(n int, pos *torus.Positions, weights []float64, intensity, wmin float64) (*Builder, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices do not fit the int32 ids of the CSR form", n)
	}
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
		w:         idWidth(n),
		intensity: intensity,
		wmin:      wmin,
	}, nil
}

// AddEdge records the undirected edge {u, v}. It panics on out-of-range
// vertices or self-loops, which generators must not emit, on the edge that
// would overflow the CSR form's int32 offsets, and after Finish.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic("graph: vertex out of range")
	}
	checkEdgeCount(b.m + 1)
	if len(b.tail) == cap(b.tail) {
		if b.done {
			panic("graph: AddEdge after Finish")
		}
		if b.tail != nil {
			b.full = append(b.full, b.tail)
		}
		b.tail = make([]byte, 0, chunkEdges*2*b.w)
	}
	b.tail = putID(putID(b.tail, uint32(u), b.w), uint32(v), b.w)
	b.m++
}

// EdgeCount returns the number of edges recorded so far.
func (b *Builder) EdgeCount() int { return b.m }

// Finish freezes the builder into a Graph, deduplicating parallel edges. It
// releases the edge store, so a builder finishes once; a second call panics.
func (b *Builder) Finish() *Graph {
	if b.done {
		panic("graph: Builder.Finish called twice")
	}
	b.done = true
	chunks := append(b.full, b.tail)
	b.full, b.tail = nil, nil
	g := &Graph{
		n:         b.n,
		pos:       b.pos,
		weights:   b.weights,
		intensity: b.intensity,
		wmin:      b.wmin,
	}
	// Degree counting pass (both directions).
	w := b.w
	deg := make([]int32, b.n+1)
	for _, c := range chunks {
		for i := 0; i < len(c); i += w {
			deg[getID(c[i:], w)+1]++
		}
	}
	for i := 0; i < b.n; i++ {
		deg[i+1] += deg[i]
	}
	g.offsets = deg
	adj := make([]int32, 2*b.m)
	fill := make([]int32, b.n)
	for _, c := range chunks {
		for i := 0; i < len(c); i += 2 * w {
			u, v := int32(getID(c[i:], w)), int32(getID(c[i+w:], w))
			adj[g.offsets[u]+fill[u]] = v
			fill[u]++
			adj[g.offsets[v]+fill[v]] = u
			fill[v]++
		}
	}
	g.adj = adj
	g.sortAndDedup()
	return g
}

// idWidth is the number of bytes that hold every vertex id of an n-vertex
// graph, 0..n-1: 1 up to n = 256, 2 up to 65 536, 3 up to 2^24, else 4.
func idWidth(n int) int {
	w := 1
	for max := n - 1; max > 0xff; max >>= 8 {
		w++
	}
	return w
}

// putID appends x to dst as w little-endian bytes; x must fit them.
func putID(dst []byte, x uint32, w int) []byte {
	switch w {
	case 1:
		return append(dst, byte(x))
	case 2:
		return append(dst, byte(x), byte(x>>8))
	case 3:
		return append(dst, byte(x), byte(x>>8), byte(x>>16))
	default:
		return append(dst, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
}

// getID reads the w little-endian bytes putID wrote at the start of p.
func getID(p []byte, w int) uint32 {
	switch w {
	case 1:
		return uint32(p[0])
	case 2:
		return uint32(p[0]) | uint32(p[1])<<8
	case 3:
		return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	default:
		return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
	}
}

// checkEdgeCount panics when m edges make more adjacency entries than the
// CSR form's int32 offsets can index; the offsets would wrap silently.
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

// WeightOrder returns the memoized WeightOrder of g's weights, the order
// Figure 1's first phase climbs (identity when unweighted, as Weight is 1).
// Core and crash-core's crash set are prefixes of it. Callers must not
// modify the shared slice.
func (g *Graph) WeightOrder() []int32 {
	g.orderOnce.Do(func() { g.order = WeightOrder(g.n, g.Weight) })
	return g.order
}

// Giant returns the memoized GiantComponent of g: one component pass per
// graph, however many networks and batches draw pairs from it. Callers must
// not modify the shared slice.
func (g *Graph) Giant() []int {
	g.giantOnce.Do(func() { g.giant = GiantComponent(g) })
	return g.giant
}

// WeightOrder sorts the vertices 0..n-1 by weight descending, ties by id
// ascending: a strict total order, so a pure function of the weights. It is
// the module's one weight sort; what has no memo (a live overlay, a
// generator's weights) calls it directly.
func WeightOrder(n int, weight func(v int) float64) []int32 {
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(weight(int(b)), weight(int(a))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
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
