package graph

// Classical algorithms on the CSR graph: breadth-first search, connected
// components via union-find, and helpers for picking vertices in the giant
// component.

// BFS computes unweighted shortest-path distances from source. Unreachable
// vertices get distance -1. The result slice has length N().
func BFS(g *Graph, source int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := make([]int32, 0, 1024)
	queue = append(queue, int32(source))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// AdjacencyView is the minimal read surface the interface-based algorithms
// need; *Graph and *Overlay both satisfy it.
type AdjacencyView interface {
	N() int
	Neighbors(v int) []int32
}

// BFSDistanceOn is the hop distance between s and t over any adjacency view
// (-1 if disconnected; it stops as soon as t is settled) — in particular
// over a live *Overlay, so churn experiments can measure stretch against
// the drifted graph's true distances rather than the stale base's.
func BFSDistanceOn(g AdjacencyView, s, t int) int {
	if s == t {
		return 0
	}
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				if int(u) == t {
					return int(dv) + 1
				}
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return -1
}

// BFSDistance returns the hop distance between s and t, or -1 if
// disconnected. It stops as soon as t is settled.
func BFSDistance(g *Graph, s, t int) int { return BFSDistanceOn(g, s, t) }

// Components labels every vertex with a component id in [0, count) and
// returns the labels, the component sizes, and the id of a largest
// component.
func Components(g *Graph) (labels []int32, sizes []int, giant int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	next := int32(0)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		id := next
		next++
		size := 0
		labels[s] = id
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, u := range g.Neighbors(int(v)) {
				if labels[u] < 0 {
					labels[u] = id
					queue = append(queue, u)
				}
			}
		}
		sizes = append(sizes, size)
	}
	giant = 0
	for i, s := range sizes {
		if s > sizes[giant] {
			giant = i
		}
	}
	return labels, sizes, giant
}

// GiantComponent returns the vertex ids of a largest connected component, in
// increasing order; a graph with no vertex has an empty one.
func GiantComponent(g *Graph) []int {
	labels, sizes, giant := Components(g)
	if len(sizes) == 0 {
		return nil
	}
	out := make([]int, 0, sizes[giant])
	for v, l := range labels {
		if l == int32(giant) {
			out = append(out, v)
		}
	}
	return out
}
