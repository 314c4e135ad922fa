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

// RouteInto runs greedy routing under the lookahead-wrapped objective. The
// lookahead score cache is built per episode (it memoizes the wrapped
// objective, which changes with the target), so this reuses the Result but
// is not zero-alloc.
func (LookaheadGreedy) RouteInto(g Graph, obj Objective, s int, _ *Scratch, out *Result) {
	greedyInto(g, NewLookahead(g, obj), s, out)
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
	cache := newScoreCache(g.N())
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
		if s, ok := cache.get(v); ok {
			return s
		}
		best := phi(v)
		for _, u := range g.Neighbors(v) {
			if s := phi(int(u)); s > best {
				best = s
			}
		}
		cache.put(v, best)
		return best
	}
	return Objective{Target: inner.Target, Score: score}
}
