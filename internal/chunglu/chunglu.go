// Package chunglu implements the Chung-Lu random graph, the non-geometric
// ancestor of GIRGs ("the GIRG model is inspired by the classic Chung-Lu
// random graphs", Section 1.1): every vertex draws a power-law weight and
// two vertices connect independently with probability min(1, w_u w_v / S),
// S the total weight — same marginals as a GIRG (Lemma 7.1), but no
// underlying geometry.
//
// The model is the control group of experiment E14: it shows that the
// weight structure alone yields neither the constant clustering of real
// networks nor a signal greedy routing could follow.
package chunglu

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Params are the free parameters of the model.
type Params struct {
	// N is the number of vertices.
	N int
	// Beta is the weight power-law exponent (> 2).
	Beta float64
	// WMin is the minimum weight.
	WMin float64
}

// DefaultParams matches the GIRG defaults for comparisons.
func DefaultParams(n int) Params {
	return Params{N: n, Beta: 2.5, WMin: 1}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("chunglu: N = %d too small", p.N)
	}
	if !(p.Beta > 2) {
		return fmt.Errorf("chunglu: beta = %v, need > 2", p.Beta)
	}
	if !(p.WMin > 0) {
		return fmt.Errorf("chunglu: wmin = %v, need > 0", p.WMin)
	}
	return nil
}

// Generate samples a Chung-Lu graph in expected time O(n + m) with the
// Miller-Hagberg skipping algorithm: weights are sorted in decreasing
// order, so along each row the connection probability only falls and
// geometric skips with rejection visit every pair with exactly the right
// probability.
func Generate(p Params, seed uint64) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	weights := make([]float64, p.N)
	total := 0.0
	for i := range weights {
		weights[i] = rng.PowerLaw(p.WMin, p.Beta)
		total += weights[i]
	}
	// Sort indices by decreasing weight; edges are sampled in sorted order
	// and mapped back so vertex ids remain in sampling order.
	order := graph.WeightOrder(p.N, func(v int) float64 { return weights[v] })
	sorted := make([]float64, p.N)
	for k, id := range order {
		sorted[k] = weights[id]
	}

	b, err := graph.NewBuilder(p.N, nil, weights, float64(p.N), p.WMin)
	if err != nil {
		return nil, err
	}
	prob := func(i, j int) float64 { return min(1, sorted[i]*sorted[j]/total) }
	for i := 0; i < p.N-1; i++ {
		j := i + 1
		pij := prob(i, j)
		for j < p.N && pij > 0 {
			if pij < 1 {
				j += rng.GeometricSkip(pij)
			}
			if j >= p.N {
				break
			}
			q := prob(i, j)
			if rng.Bernoulli(q / pij) {
				b.AddEdge(int(order[i]), int(order[j]))
			}
			pij = q
			j++
		}
	}
	return b.Finish(), nil
}
