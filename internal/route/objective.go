// Package route implements the paper's routing protocols on geometric
// graphs: the greedy routing of Algorithm 1 (Section 2.2), the patching
// protocols of Section 5 — including a faithful translation of the paper's
// distributed Algorithm 2 — and the relaxed (approximate) objective
// functions of Theorem 3.5, plus the degree-agnostic geometric objective the
// experimental literature compares against (Section 4).
//
// Everything is expressed against an Objective: a per-vertex score that the
// target vertex maximizes. The standard GIRG objective is
//
//	phi(v) = w_v / (w_min * n * ||x_v - x_t||^d),
//
// the probability scale of v connecting to t — "forward to the acquaintance
// most likely to know the target".
package route

import (
	"math"

	"repro/internal/torus"
)

// Objective assigns each vertex a score toward a fixed target; the target
// itself scores +Inf. Routing protocols move the message to
// score-maximizing neighbors.
type Objective struct {
	// Target is the destination vertex.
	Target int
	// Score returns the objective of vertex v; it must return +Inf exactly
	// for v == Target. Implementations may cache internally; they are not
	// required to be safe for concurrent use.
	Score func(v int) float64
}

// GeoGraph is the geometric read surface the objective constructors need:
// adjacency plus positions, weights and the model normalization constants.
// Both the immutable *graph.Graph and the live *graph.Overlay satisfy it,
// so one objective implementation scores frozen snapshots and mutating
// graphs identically.
type GeoGraph interface {
	Graph
	Pos(v int) []float64
	Space() torus.Space
	Intensity() float64
	WMin() float64
}

// NewStandard returns the paper's objective phi for target t on g. Scores
// are computed on demand, not memoized: one costs a distance and a divide,
// so setup stays O(1) however few vertices an episode scores.
func NewStandard(g GeoGraph, t int) Objective {
	space := g.Space()
	xt := g.Pos(t)
	norm := 1 / (g.WMin() * g.Intensity())
	score := func(v int) float64 {
		if v == t {
			return math.Inf(1)
		}
		return g.Weight(v) * norm / space.DistPow(g.Pos(v), xt)
	}
	return Objective{Target: t, Score: score}
}

// NewGeometric returns the degree-agnostic objective 1/||x_v - x_t||: pure
// geometric routing as studied by Boguñá–Krioukov (Section 4 discussion).
func NewGeometric(g GeoGraph, t int) Objective {
	space := g.Space()
	xt := g.Pos(t)
	score := func(v int) float64 {
		if v == t {
			return math.Inf(1)
		}
		return 1 / space.Dist(g.Pos(v), xt)
	}
	return Objective{Target: t, Score: score}
}

// NewRelaxed wraps an objective with the multiplicative per-vertex noise of
// Theorem 3.5: scoretilde(v) = score(v) * M_v^{delta_v} with
// M_v = min{w_v, score(v)^-1} and delta_v drawn once per vertex uniformly
// from [-eps, +eps] (deterministically from seed). With eps -> 0 this is
// the o(1)-exponent relaxation the theorem allows; larger eps stress-tests
// beyond it. The target remains the unique maximum. Like NewStandard it
// scores on demand, not memoized: the noise is a pure function of (seed, v),
// so setup stays O(1) however few vertices an episode scores.
func NewRelaxed(inner Objective, g GeoGraph, eps float64, seed uint64) Objective {
	score := func(v int) float64 {
		if v == inner.Target {
			return math.Inf(1)
		}
		phi := inner.Score(v)
		m := g.Weight(v)
		if inv := 1 / phi; inv < m {
			m = inv
		}
		if m < 1 {
			m = 1 // noise exponent is only meaningful on the >= 1 scale
		}
		delta := (2*hashFloat(seed, uint64(v)) - 1) * eps
		return phi * math.Pow(m, delta)
	}
	return Objective{Target: inner.Target, Score: score}
}

// hashFloat maps (seed, v) to a deterministic uniform value in [0, 1).
func hashFloat(seed, v uint64) float64 {
	x := seed ^ (v+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * 0x1p-53
}

// better reports whether vertex a strictly beats vertex b under the given
// scores, breaking exact ties by vertex id so every protocol has a total
// order (the paper assumes distinct objectives; ties have measure zero but
// ids make the code deterministic regardless).
func better(scoreA, scoreB float64, a, b int) bool {
	if scoreA != scoreB {
		return scoreA > scoreB
	}
	return a < b
}

// BestNeighbor returns v's neighbor with the maximal objective, or -1 if v
// is isolated.
func BestNeighbor(g Graph, obj Objective, v int) int {
	best := -1
	bestScore := math.Inf(-1)
	for _, u32 := range g.Neighbors(v) {
		u := int(u32)
		s := obj.Score(u)
		if best == -1 || better(s, bestScore, u, best) {
			best, bestScore = u, s
		}
	}
	return best
}
