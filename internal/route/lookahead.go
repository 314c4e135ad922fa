package route

import (
	"math"
)

// lookaheadTargetScore is the finite stand-in for the target's objective
// inside lookahead aggregation: any vertex that sees the target outscores
// every vertex that does not, while the target itself keeps its +Inf score
// so the final hop still goes to it.
const lookaheadTargetScore = math.MaxFloat64 / 4

// LookaheadGreedy is greedy routing on the one-hop lookahead objective as a
// registered Protocol: Algorithm 1 run on NewLookahead(g, obj) instead of
// obj itself ("know thy neighbor's neighbor", Section 1.1 related work).
type LookaheadGreedy struct{}

// Name returns "greedy+lookahead".
func (LookaheadGreedy) Name() string { return "greedy+lookahead" }

// RouteInto runs greedy routing under the lookahead objective, memoized in sc.
func (LookaheadGreedy) RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	greedyInto(g, lookahead(g, obj, sc.begin(g.N())), s, out)
}

func init() { Register(LookaheadGreedy{}) }

// NewLookahead wraps an objective with one-hop lookahead — the "know thy
// neighbor's neighbor" enhancement of Manku, Naor and Wieder discussed in
// the paper's related work (Section 1.1): a vertex is as good as the best
// vertex it can reach in one hop,
//
//	psi(v) = max( phi(v), max_{u in N(v)} phi(u) ),
//
// with the target counted as a huge finite value so that psi stays totally
// ordered and greedy routing on psi terminates (psi strictly increases along
// the path; a vertex adjacent to the target always forwards straight to it,
// whose score remains +Inf). This still only uses information about direct
// neighbors — two hops of it travel with the scores.
func NewLookahead(g Graph, inner Objective) Objective {
	return lookahead(g, inner, new(Scratch).begin(g.N()))
}

// lookahead is NewLookahead memoizing psi in the slots of sc, an episode
// just begun: under a fault view whose adjacency changes per query
// (edge-drop), a vertex keeps the psi of its first scan.
func lookahead(g Graph, inner Objective, sc *Scratch) Objective {
	sc.memo = grow(sc.memo, g.N())
	phi := func(v int) float64 {
		if v == inner.Target {
			return lookaheadTargetScore
		}
		return inner.Score(v)
	}
	score := func(v int) float64 {
		if v == inner.Target {
			return math.Inf(1)
		}
		memo := slot(sc, sc.memo, v, math.NaN())
		if !math.IsNaN(*memo) {
			return *memo
		}
		best := phi(v)
		for _, u := range g.Neighbors(v) {
			if s := phi(int(u)); s > best {
				best = s
			}
		}
		*memo = best
		return best
	}
	return Objective{Target: inner.Target, Score: score}
}
