package route

import (
	"container/heap"
	"math"
)

// HistoryPatch is the first patching example of Section 5: the message
// carries the list of visited vertices plus, per visited vertex, the best
// unexplored incident edge. The protocol routes greedily while possible;
// stuck in a local optimum, it moves to the globally best unexplored edge
// leaving the visited set. Moving there costs a walk through already-visited
// vertices, which the protocol pays for in Moves (shortest such walk, found
// by BFS over the visited subgraph).
//
// The protocol satisfies (P1) greedy choices, (P2) poly-time exploration
// (every phase visits a fresh vertex after at most |visited| moves) and (P3)
// poly-time exhaustive search (edges are explored in objective order, so
// the component of the best-so-far vertex above its objective is exhausted
// before anything worse is touched).
type HistoryPatch struct {
	// MaxMoves caps message transmissions; 0 means 64*n + 256.
	MaxMoves int
}

// Name returns "history".
func (HistoryPatch) Name() string { return "history" }

func init() { Register(HistoryPatch{}) }

// frontierEdge is a candidate unexplored edge (from a visited vertex to an
// unvisited neighbor), ordered by the neighbor's objective.
type frontierEdge struct {
	score float64
	to    int
	from  int
}

type frontierHeap []frontierEdge

func (h frontierHeap) Len() int { return len(h) }
func (h frontierHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].to < h[j].to
}
func (h frontierHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x interface{}) { *h = append(*h, x.(frontierEdge)) }
func (h *frontierHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RouteInto runs the history-patched protocol from s toward obj.Target into
// out, reusing out's Path backing array and sc's unique-count marks. The protocol's own exploration state (visited set,
// frontier heap) is still allocated per episode — history carries
// per-episode message state by design; only greedy is the zero-alloc path.
func (a HistoryPatch) RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	maxMoves := a.MaxMoves
	if maxMoves == 0 {
		maxMoves = 64*g.N() + 256
	}
	out.reset(s)
	res := out
	visited := map[int]bool{}
	frontier := &frontierHeap{}

	visit := func(v int) {
		visited[v] = true
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if !visited[u] {
				heap.Push(frontier, frontierEdge{score: obj.Score(u), to: u, from: v})
			}
		}
	}

	pos := s
	visit(s)
	for res.Moves <= maxMoves {
		if pos == obj.Target {
			res.Success = true
			res.finalize(sc, g.N())
			return
		}
		// (P1): on a fresh vertex with a strictly better neighbor, move
		// greedily to the best neighbor.
		if u := BestNeighbor(g, obj, pos); u >= 0 && better(obj.Score(u), obj.Score(pos), u, pos) {
			res.step(u)
			pos = u
			if !visited[u] {
				visit(u)
			}
			continue
		}
		// Local optimum: take the globally best unexplored edge.
		var next frontierEdge
		found := false
		for frontier.Len() > 0 {
			e := heap.Pop(frontier).(frontierEdge)
			if !visited[e.to] {
				next, found = e, true
				break
			}
		}
		if !found {
			res.Stuck = pos
			res.finalize(sc, g.N()) // component exhausted
			return
		}
		// Walk within the visited subgraph from pos to next.from, then
		// across the unexplored edge.
		for _, v := range walkVisited(g, visited, pos, next.from) {
			res.step(v)
		}
		res.step(next.to)
		pos = next.to
		visit(pos)
	}
	res.Truncated = true
	res.finalize(sc, g.N())
}

// walkVisited returns the vertices after `from` on a shortest path from
// `from` to `to` inside the visited set (empty if from == to). Both
// endpoints must be visited.
func walkVisited(g Graph, visited map[int]bool, from, to int) []int {
	if from == to {
		return nil
	}
	prev := map[int]int{from: from}
	queue := []int{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == to {
			break
		}
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if !visited[u] {
				continue
			}
			if _, seen := prev[u]; !seen {
				prev[u] = v
				queue = append(queue, u)
			}
		}
	}
	if _, ok := prev[to]; !ok {
		// The visited set is connected by construction, so this cannot
		// happen; return a direct hop as a defensive fallback.
		return []int{to}
	}
	var rev []int
	for v := to; v != from; v = prev[v] {
		rev = append(rev, v)
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// GravityPressure is the gravity-pressure patching heuristic of
// Cvetkovski-Crovella discussed in Sections 4-5: in gravity mode the
// message moves greedily; at a local optimum it switches to pressure mode,
// always moving to the neighbor visited the fewest times (ties broken by
// objective), until it reaches a vertex with a better objective than the
// optimum where it got stuck, then resumes gravity mode. The paper points
// out this protocol violates (P3) and can explore large parts of the giant
// before returning, which E6 measures.
type GravityPressure struct {
	// MaxMoves caps message transmissions; 0 means 64*n + 256.
	MaxMoves int
}

// Name returns "gravity-pressure".
func (GravityPressure) Name() string { return "gravity-pressure" }

func init() { Register(GravityPressure{}) }

// RouteInto runs gravity-pressure from s toward obj.Target into out, reusing
// out's Path backing array and sc's unique-count marks (the per-episode visit counts stay a map).
func (a GravityPressure) RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	maxMoves := a.MaxMoves
	if maxMoves == 0 {
		maxMoves = 64*g.N() + 256
	}
	out.reset(s)
	res := out
	visits := map[int]int{s: 1}
	pos := s
	pressure := false
	stuckScore := math.Inf(-1)
	for res.Moves <= maxMoves {
		if pos == obj.Target {
			res.Success = true
			res.finalize(sc, g.N())
			return
		}
		if pressure && obj.Score(pos) > stuckScore {
			pressure = false
		}
		var next int
		if !pressure {
			u := BestNeighbor(g, obj, pos)
			if u < 0 {
				res.Stuck = pos
				res.finalize(sc, g.N()) // isolated vertex
				return
			}
			if better(obj.Score(u), obj.Score(pos), u, pos) {
				next = u
			} else {
				pressure = true
				stuckScore = obj.Score(pos)
				continue
			}
		} else {
			next = leastVisitedNeighbor(g, obj, visits, pos)
			if next < 0 {
				res.Stuck = pos
				res.finalize(sc, g.N())
				return
			}
		}
		visits[next]++
		res.step(next)
		pos = next
	}
	res.Truncated = true
	res.finalize(sc, g.N())
}

// leastVisitedNeighbor returns pos's neighbor with the fewest visits,
// breaking ties by objective then id; -1 if pos is isolated.
func leastVisitedNeighbor(g Graph, obj Objective, visits map[int]int, pos int) int {
	best := -1
	bestVisits := 0
	var bestScore float64
	for _, u32 := range g.Neighbors(pos) {
		u := int(u32)
		vc := visits[u]
		if best == -1 || vc < bestVisits ||
			(vc == bestVisits && better(obj.Score(u), bestScore, u, best)) {
			best, bestVisits, bestScore = u, vc, obj.Score(u)
		}
	}
	return best
}
