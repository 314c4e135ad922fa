package girg

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// NaiveSamplerKernel draws every edge by flipping an explicit coin, with
// the given kernel, for each of the n(n-1)/2 vertex pairs. It is the
// reference implementation: trivially correct, quadratic, and used to
// cross-validate the fast sampler. Keep it for n up to a few tens of
// thousands.
func NaiveSamplerKernel(p Params, kernel EdgeKernel, vs *Vertices, rng *xrand.RNG, b *graph.Builder) {
	space := vs.Pos.Space()
	n := vs.N()
	for u := 0; u < n; u++ {
		pu := vs.Pos.At(u)
		wu := vs.W[u]
		for v := u + 1; v < n; v++ {
			distPow := space.DistPow(pu, vs.Pos.At(v))
			if rng.Bernoulli(kernel.Prob(wu, vs.W[v], distPow)) {
				b.AddEdge(u, v)
			}
		}
	}
}
