// Package girg implements Geometric Inhomogeneous Random Graphs, the network
// model of Section 2.1 of the paper: vertices are a Poisson point process of
// intensity n on the torus T^d, each vertex draws a power-law weight with
// exponent beta in (2,3) and minimum wmin, and two vertices connect
// independently with probability
//
//	p(u,v) = min{1, lambda * ( w_u w_v / (w_min n ||x_u - x_v||^d) )^alpha }
//
// for alpha < infinity (condition (EP1)), or with the hard threshold kernel
//
//	p(u,v) = 1 iff ||x_u - x_v||^d <= lambda * w_u w_v / (w_min n)
//
// for alpha = infinity (condition (EP2)). With lambda >= 1 the soft kernel
// saturates at 1 for close pairs, which is exactly condition (EP3) with
// c1 = lambda^(1/alpha); Theorem 3.2 assumes this.
//
// Two edge samplers are provided: a quadratic-time reference (NaiveSampler)
// and an expected-linear-time layered sampler (FastSampler) in the style of
// Bringmann–Keusch–Lengler. They draw from the same distribution and are
// cross-validated in the tests.
package girg

import (
	"fmt"
	"math"

	"repro/internal/torus"
	"repro/internal/xrand"
)

// Params are the free parameters of the GIRG model (Section 2.1). The zero
// value is not valid; start from DefaultParams.
type Params struct {
	// N is the intensity of the Poisson point process, i.e. the expected
	// number of vertices.
	N float64
	// Dim is the dimension d of the torus.
	Dim int
	// Beta is the power-law exponent of the weight distribution; the paper
	// requires 2 < Beta < 3 (we accept any Beta > 2 and let experiments
	// explore the boundary).
	Beta float64
	// Alpha is the long-range decay parameter (> 1). Use math.Inf(1) for
	// the threshold model (EP2).
	Alpha float64
	// WMin is the minimum vertex weight.
	WMin float64
	// Lambda is the kernel prefactor (the Theta-constant of (EP1)/(EP2)).
	// Lambda >= 1 guarantees (EP3).
	Lambda float64
	// WMax optionally truncates the weight distribution; 0 means
	// unbounded.
	WMax float64
	// FixedN, when true, places exactly round(N) vertices instead of
	// Poisson(N) many. The paper's proofs use the Poisson version; the
	// fixed version matches most experimental papers.
	FixedN bool
	// Norm selects the torus metric (the paper's results hold for any
	// norm; default is the max norm of Section 2.1).
	Norm torus.Norm
	// Geometry selects the ground space: the cyclic torus (default) or the
	// cube [0,1]^d, both valid per Section 2.1.
	Geometry torus.Geometry
}

// DefaultParams returns the parameter set used as the base point of the
// experiments: a 2-dimensional GIRG with beta = 2.5, alpha = 2, wmin = 1.
func DefaultParams(n float64) Params {
	return Params{
		N:      n,
		Dim:    2,
		Beta:   2.5,
		Alpha:  2,
		WMin:   1,
		Lambda: 1,
	}
}

// Threshold reports whether the parameters select the alpha = infinity
// threshold kernel.
func (p Params) Threshold() bool { return math.IsInf(p.Alpha, 1) }

// Validate checks the parameters against the model's requirements.
func (p Params) Validate() error {
	if !(p.N >= 1) {
		return fmt.Errorf("girg: intensity N = %v, need >= 1", p.N)
	}
	if p.Dim < 1 || p.Dim > torus.MaxDim {
		return fmt.Errorf("girg: dimension %d out of range [1, %d]", p.Dim, torus.MaxDim)
	}
	if !(p.Beta > 2) {
		return fmt.Errorf("girg: beta = %v, need > 2", p.Beta)
	}
	if !(p.Alpha > 1) { // Inf passes
		return fmt.Errorf("girg: alpha = %v, need > 1 (or +Inf)", p.Alpha)
	}
	if !(p.WMin > 0) {
		return fmt.Errorf("girg: wmin = %v, need > 0", p.WMin)
	}
	if !(p.Lambda > 0) {
		return fmt.Errorf("girg: lambda = %v, need > 0", p.Lambda)
	}
	if p.WMax != 0 && p.WMax < p.WMin {
		return fmt.Errorf("girg: wmax = %v below wmin = %v", p.WMax, p.WMin)
	}
	return nil
}

// EdgeKernel abstracts the edge-probability function the samplers evaluate.
// Prob must be non-increasing in distPow and non-decreasing in each weight;
// the fast sampler relies on that monotonicity when it bounds cell pairs.
// SaturationDistPow returns the distPow scale below which Prob may be close
// to 1 for the given weight product — it only tunes the sampler's
// comparison levels (performance), never correctness.
type EdgeKernel interface {
	Prob(wu, wv, distPow float64) float64
	SaturationDistPow(wuwv float64) float64
}

// Kernel evaluates the edge-probability function of the model. It is a value
// type so samplers can keep it in registers on the hot path.
type Kernel struct {
	alpha     float64
	lambda    float64
	invWMinN  float64
	threshold bool
}

// NewKernel builds the kernel for the given parameters.
func NewKernel(p Params) Kernel {
	return Kernel{
		alpha:     p.Alpha,
		lambda:    p.Lambda,
		invWMinN:  1 / (p.WMin * p.N),
		threshold: p.Threshold(),
	}
}

// Prob returns the connection probability of two vertices with weights wu,
// wv at torus distance dist with dist^d = distPow.
func (k Kernel) Prob(wu, wv, distPow float64) float64 {
	kk := wu * wv * k.invWMinN
	if k.threshold {
		if distPow <= k.lambda*kk {
			return 1
		}
		return 0
	}
	if distPow <= 0 {
		return 1
	}
	r := kk / distPow
	// For alpha = 2, the default, r*r is math.Pow(r, 2) bit for bit while the
	// square is a normal number: Pow squares the mantissa of r with this very
	// multiplication, rounded once, and scales by a power of two. Outside
	// that range (and for NaN) Pow's own overflow and subnormal handling
	// decides.
	pow := r * r
	if k.alpha != 2 || !(r > 0x1p-500 && r < 0x1p500) {
		pow = math.Pow(r, k.alpha)
	}
	x := k.lambda * pow
	if x >= 1 {
		return 1
	}
	return x
}

// SaturationDistPow returns the value of dist^d at which the kernel reaches
// probability 1 for the given weight product budget wu*wv (0 for the soft
// kernel if it never saturates, which cannot happen for lambda >= 1).
func (k Kernel) SaturationDistPow(wuwv float64) float64 {
	kk := wuwv * k.invWMinN
	if k.threshold {
		return k.lambda * kk
	}
	// lambda * (kk/distPow)^alpha >= 1  <=>  distPow <= kk * lambda^(1/alpha).
	return kk * math.Pow(k.lambda, 1/k.alpha)
}

// Vertices is a sampled GIRG vertex set: positions on the torus plus
// weights. Planted vertices (with caller-chosen attributes) occupy the first
// indices.
type Vertices struct {
	Pos     *torus.Positions
	W       []float64
	Planted int // number of leading planted vertices
}

// N returns the number of vertices.
func (vs *Vertices) N() int { return len(vs.W) }

// Plant describes a vertex whose position and weight the caller fixes (the
// adversarially chosen s and t of the theorems). Weight must be >= WMin; a
// nil Pos means a uniformly random position.
type Plant struct {
	Pos []float64
	W   float64
}

// SampleVertices draws the vertex set: the planted vertices first, then
// Poisson(N) (or exactly round(N) if FixedN) random vertices with power-law
// weights.
func SampleVertices(p Params, rng *xrand.RNG, planted []Plant) (*Vertices, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	space, err := torus.NewSpaceFull(p.Dim, p.Norm, p.Geometry)
	if err != nil {
		return nil, err
	}
	nRandom := int(math.Round(p.N))
	if !p.FixedN {
		nRandom = rng.Poisson(p.N)
	}
	n := nRandom + len(planted)
	pos := torus.NewPositions(space, n)
	w := make([]float64, n)
	buf := make([]float64, p.Dim)
	for i, pl := range planted {
		if math.IsNaN(pl.W) || math.IsInf(pl.W, 0) {
			return nil, fmt.Errorf("girg: planted vertex %d weight %v is not finite", i, pl.W)
		}
		if pl.W < p.WMin {
			return nil, fmt.Errorf("girg: planted vertex %d weight %v below wmin %v", i, pl.W, p.WMin)
		}
		if p.WMax != 0 && pl.W > p.WMax {
			return nil, fmt.Errorf("girg: planted vertex %d weight %v above wmax %v", i, pl.W, p.WMax)
		}
		if pl.Pos == nil {
			randomPoint(rng, buf)
			pos.Set(i, buf)
		} else {
			if len(pl.Pos) != p.Dim {
				return nil, fmt.Errorf("girg: planted vertex %d position has dim %d, want %d", i, len(pl.Pos), p.Dim)
			}
			for j, c := range pl.Pos {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					return nil, fmt.Errorf("girg: planted vertex %d coordinate %d is %v, not finite", i, j, c)
				}
				buf[j] = torus.Wrap(c)
			}
			pos.Set(i, buf)
		}
		w[i] = pl.W
	}
	for i := len(planted); i < n; i++ {
		randomPoint(rng, buf)
		pos.Set(i, buf)
		if p.WMax != 0 {
			w[i] = rng.PowerLawTruncated(p.WMin, p.WMax, p.Beta)
		} else {
			w[i] = rng.PowerLaw(p.WMin, p.Beta)
		}
	}
	return &Vertices{Pos: pos, W: w, Planted: len(planted)}, nil
}

func randomPoint(rng *xrand.RNG, buf []float64) {
	for i := range buf {
		buf[i] = rng.Float64()
	}
}
