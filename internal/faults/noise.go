package faults

import (
	"math"

	"repro/internal/route"
	"repro/internal/xrand"
)

// objective-noise recasts Theorem 3.5's relaxation as an injectable fault:
// instead of the true objective phi the protocol routes by
// phitilde(v) = phi(v) * M_v^{delta_v} with M_v = min{w_v, phi(v)^-1} and
// delta_v drawn per vertex uniformly from [-rate, +rate]. With rate -> 0
// this is the o(1)-exponent relaxation the theorem proves harmless; larger
// rates stress-test beyond it. Unlike route.NewRelaxed it works on any
// route.Graph (not just *graph.Graph) and composes with the other fault
// layers; like it, it recomputes the hash-based noise on the fly.

func init() {
	Register("objective-noise", func(s Spec) (Model, error) {
		return objectiveNoise{eps: s.Rate}, nil
	})
}

type objectiveNoise struct{ eps float64 }

// Name returns "objective-noise".
func (objectiveNoise) Name() string { return "objective-noise" }

// Bind attaches the model to a graph.
func (m objectiveNoise) Bind(g route.Graph, seed uint64) Bound {
	return boundNoise{seed: seed, eps: m.eps}
}

type boundNoise struct {
	noCrash
	seed uint64
	eps  float64
}

// View wraps the objective with per-vertex multiplicative noise. The noise
// is per-plan, not per-episode: a vertex misjudges its objective the same
// way in every episode, as a consistently miscalibrated node would. The
// target keeps its +Inf score, so it remains the unique maximum.
func (b boundNoise) View(g route.Graph, obj route.Objective, episode int) (route.Graph, route.Objective) {
	if b.eps <= 0 {
		return g, obj
	}
	inner := obj.Score
	target := obj.Target
	noisy := func(v int) float64 {
		if v == target {
			return math.Inf(1)
		}
		phi := inner(v)
		m := g.Weight(v)
		if inv := 1 / phi; inv < m {
			m = inv
		}
		if m < 1 {
			m = 1 // the noise exponent is only meaningful on the >= 1 scale
		}
		delta := (2*xrand.HashFloat(b.seed, uint64(v)) - 1) * b.eps
		return phi * math.Pow(m, delta)
	}
	return g, route.Objective{Target: target, Score: noisy}
}
