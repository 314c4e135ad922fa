package route

import (
	"math"
	"slices"
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
	score    float64
	to, from int
}

// frontierHeap is a max-heap of frontier edges: container/heap's sift steps
// written out (edges of equal priority leave in the same order) without
// boxing every edge into an interface.
type frontierHeap []frontierEdge

func (h frontierHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].to < h[j].to
}

func (h *frontierHeap) push(e frontierEdge) {
	q := append(*h, e)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *frontierHeap) pop() frontierEdge {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; 2*i+1 < n; {
		j := 2*i + 1 // the child that leaves first
		if j+1 < n && q.less(j+1, j) {
			j++
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// RouteInto runs the history-patched protocol from s toward obj.Target into
// res, keeping the message's history — the visited set, the frontier heap,
// the walk back to it — in sc (a nil sc routes on a fresh one).
func (a HistoryPatch) RouteInto(g Graph, obj Objective, s int, sc *Scratch, res *Result) {
	sc, maxMoves := startPatch(g, s, a.MaxMoves, sc, res)
	visited := &sc.vert
	sc.frontier = sc.frontier[:0]

	visit := func(v int) {
		visited.set(v)
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if !visited.has(u) {
				sc.frontier.push(frontierEdge{score: obj.Score(u), to: u, from: v})
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
			if !visited.has(u) {
				visit(u)
			}
			continue
		}
		// Local optimum: take the globally best unexplored edge.
		next := frontierEdge{to: -1}
		for len(sc.frontier) > 0 && next.to < 0 {
			if e := sc.frontier.pop(); !visited.has(e.to) {
				next = e
			}
		}
		if next.to < 0 {
			res.Stuck = pos
			res.finalize(sc, g.N()) // component exhausted
			return
		}
		// Walk within the visited subgraph from pos to next.from, then
		// across the unexplored edge.
		walkVisited(g, sc, pos, next.from, res)
		res.step(next.to)
		pos = next.to
		visit(pos)
	}
	res.Truncated = true
	res.finalize(sc, g.N())
}

// walkVisited steps res along a shortest path from `from` to `to` inside
// the visited set, by a BFS under its own walk epoch. Both endpoints must be
// visited.
func walkVisited(g Graph, sc *Scratch, from, to int, res *Result) {
	if from == to {
		return
	}
	reached := &sc.walk
	reached.begin(g.N())
	reached.set(from)
	sc.prev = grow(sc.prev, g.N())
	queue := append(sc.queue[:0], int32(from))
	for head := 0; head < len(queue) && int(queue[head]) != to; head++ {
		v := queue[head]
		for _, u := range g.Neighbors(int(v)) {
			if sc.vert.has(int(u)) && !reached.has(int(u)) {
				reached.set(int(u))
				sc.prev[u] = v
				queue = append(queue, u)
			}
		}
	}
	sc.queue = queue
	if !reached.has(to) {
		// The visited set is connected by construction, so this cannot
		// happen; take a direct hop as a defensive fallback.
		res.step(to)
		return
	}
	end := len(res.Path)
	for v := to; v != from; v = int(sc.prev[v]) {
		res.step(v)
	}
	slices.Reverse(res.Path[end:]) // stepped from to back to from
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

// RouteInto runs gravity-pressure from s toward obj.Target into res, keeping
// the visit counts in sc (a nil sc routes on a fresh one).
func (a GravityPressure) RouteInto(g Graph, obj Objective, s int, sc *Scratch, res *Result) {
	sc, maxMoves := startPatch(g, s, a.MaxMoves, sc, res)
	sc.visits = grow(sc.visits, g.N())
	*slot(sc, sc.visits, s, 0)++
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
			next = leastVisitedNeighbor(g, obj, sc, pos)
			if next < 0 {
				res.Stuck = pos
				res.finalize(sc, g.N())
				return
			}
		}
		*slot(sc, sc.visits, next, 0)++
		res.step(next)
		pos = next
	}
	res.Truncated = true
	res.finalize(sc, g.N())
}

// leastVisitedNeighbor returns pos's neighbor with the fewest visits,
// breaking ties by objective then id; -1 if pos is isolated.
func leastVisitedNeighbor(g Graph, obj Objective, sc *Scratch, pos int) int {
	best := -1
	bestVisits := 0
	var bestScore float64
	for _, u32 := range g.Neighbors(pos) {
		u := int(u32)
		vc := *slot(sc, sc.visits, u, 0)
		if best == -1 || vc < bestVisits ||
			(vc == bestVisits && better(obj.Score(u), bestScore, u, best)) {
			best, bestVisits, bestScore = u, vc, obj.Score(u)
		}
	}
	return best
}
