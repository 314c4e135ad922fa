// Package torus implements the geometric ground space of the GIRG model: the
// d-dimensional torus T^d = R^d / Z^d with the infinity-norm distance
// (Section 2.1 of the paper), together with the hierarchical cell grid and
// Morton (Z-order) codes that the expected-linear-time edge sampler relies
// on.
//
// Points are represented as flat []float64 slices of length d with all
// coordinates in [0, 1). Bulk storage keeps all positions in one backing
// slice with stride d, so packages above can iterate without per-point
// allocations.
package torus

import (
	"fmt"
	"math"
)

// MaxDim is the largest supported dimension. The Morton encoding packs
// lev*dim bits into a uint64, so dim*MaxLevel(dim) must stay below 64;
// eight dimensions is far beyond anything the experiments use.
const MaxDim = 8

// Norm selects the metric on the torus. The paper states the results hold
// for any norm (Section 2.1); MaxNorm is the paper's default and what the
// cell machinery is tuned for, L2Norm the familiar Euclidean alternative.
type Norm int

const (
	// MaxNorm is the infinity norm max_i |x_i - y_i| (cyclic).
	MaxNorm Norm = iota
	// L2Norm is the Euclidean norm (cyclic per coordinate).
	L2Norm
)

// Geometry selects between the cyclic torus (the paper's default, chosen
// "for technical simplicity, as it yields symmetry") and the plain cube
// [0,1]^d, which Section 2.1 notes is an equally valid ground space.
type Geometry int

const (
	// Torus is R^d / Z^d: every coordinate wraps around.
	Torus Geometry = iota
	// Cube is [0,1]^d without wrap-around.
	Cube
)

// Space describes a d-dimensional unit ground space with a chosen norm and
// geometry.
type Space struct {
	dim  int
	norm Norm
	geo  Geometry
}

// NewSpace returns the torus of the given dimension with the max norm.
func NewSpace(dim int) (Space, error) {
	return NewSpaceFull(dim, MaxNorm, Torus)
}

// NewSpaceNorm returns the torus of the given dimension and norm.
func NewSpaceNorm(dim int, norm Norm) (Space, error) {
	return NewSpaceFull(dim, norm, Torus)
}

// NewSpaceFull returns the space with every knob explicit.
func NewSpaceFull(dim int, norm Norm, geo Geometry) (Space, error) {
	if dim < 1 || dim > MaxDim {
		return Space{}, fmt.Errorf("torus: dimension %d out of range [1, %d]", dim, MaxDim)
	}
	if norm != MaxNorm && norm != L2Norm {
		return Space{}, fmt.Errorf("torus: unknown norm %d", norm)
	}
	if geo != Torus && geo != Cube {
		return Space{}, fmt.Errorf("torus: unknown geometry %d", geo)
	}
	return Space{dim: dim, norm: norm, geo: geo}, nil
}

// MustSpace is NewSpace for known-good constants; it panics on error.
func MustSpace(dim int) Space {
	s, err := NewSpace(dim)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the dimension of the space.
func (s Space) Dim() int { return s.dim }

// Norm returns the norm of the space.
func (s Space) Norm() Norm { return s.norm }

// Geometry returns the geometry of the space.
func (s Space) Geometry() Geometry { return s.geo }

// Dist returns the torus distance between x and y under the space's norm,
// with each coordinate difference taken cyclically. Both points must have
// length Dim(); this is not checked on the hot path.
func (s Space) Dist(x, y []float64) float64 {
	if s.norm == L2Norm {
		sum := 0.0
		for i := 0; i < s.dim; i++ {
			d := s.coordDist(x[i], y[i])
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	maxd := 0.0
	for i := 0; i < s.dim; i++ {
		d := s.coordDist(x[i], y[i])
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// coordDist is the per-axis distance: cyclic on the torus, plain on the
// cube.
func (s Space) coordDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if s.geo == Torus && d > 0.5 {
		d = 1 - d
	}
	return d
}

// DistPow returns Dist(x, y)^dim, the volume scale that appears in the GIRG
// connection probability. Computed without calling math.Pow for the common
// small dimensions.
func (s Space) DistPow(x, y []float64) float64 {
	return IPow(s.Dist(x, y), s.dim)
}

// IPow computes x^k for small non-negative integer k.
func IPow(x float64, k int) float64 {
	r := 1.0
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
	}
	return r
}

// UnitDistPow is Space.DistPow for the max norm on the torus with the norm
// taken by the max builtin instead of Dist's "if d > maxd" — a coin flip per
// coordinate on random positions, and the dearest thing a scan did (one
// 18 972-neighbor hub scan: 265 us with it, 185 without). max equals that
// loop only when every coordinate is a number in [0, 1) — a NaN would poison
// max where the loop skips it — which is what Graph.UnitCoords certifies.
// The wrap stays Dist's own compare on purpose: min(d, 1-d) is bit-identical
// and takes the scan to 95 us on a quiet core, but that loop is issue-bound
// and halves its speed whenever the host runs something on the sibling
// hyperthread, where a loop that waits on the wrap branches loses a quarter,
// like the rest of the program (DESIGN 7.1). The power is IPow's exact
// multiplication order, so the result is bit-identical to DistPow.
func UnitDistPow(x, y []float64) float64 {
	m := 0.0
	for k, a := range x {
		d := math.Abs(a - y[k])
		if d > 0.5 {
			d = 1 - d
		}
		m = max(m, d)
	}
	return IPow(m, len(x))
}

// UnitDistPow2 is UnitDistPow unrolled for dim 2, the model's default: the
// two loops above cost as much again as the arithmetic. It is the one copy
// of the kernel route's scan and the GIRG sampler both inline.
func UnitDistPow2(x0, x1, y0, y1 float64) float64 {
	d0, d1 := math.Abs(x0-y0), math.Abs(x1-y1)
	if d0 > 0.5 {
		d0 = 1 - d0
	}
	if d1 > 0.5 {
		d1 = 1 - d1
	}
	m := max(d0, d1)
	return m * m
}

// Wrap maps an arbitrary real coordinate into [0, 1).
func Wrap(a float64) float64 {
	a -= math.Floor(a)
	if a >= 1 { // guards against -1e-18 -> 1.0 after Floor rounding
		a = 0
	}
	return a
}

// BallVolume returns the volume of a ball of radius r on the torus under
// the space's norm (capped at 1; exact for r <= 1/2, where the ball embeds
// in the fundamental domain).
func (s Space) BallVolume(r float64) float64 {
	if r <= 0 {
		return 0
	}
	if s.norm == L2Norm {
		if r > 0.5 {
			r = 0.5 // beyond this the formula double counts; callers in the
			// experiments never exceed it
		}
		v := unitBallVolume(s.dim) * IPow(r, s.dim)
		if v > 1 {
			v = 1
		}
		return v
	}
	if r >= 0.5 {
		return 1
	}
	return IPow(2*r, s.dim)
}

// unitBallVolume returns the volume of the d-dimensional Euclidean unit
// ball, pi^(d/2) / Gamma(d/2 + 1).
func unitBallVolume(d int) float64 {
	lg, _ := math.Lgamma(float64(d)/2 + 1)
	return math.Exp(float64(d)/2*math.Log(math.Pi) - lg)
}

// MaxLevel returns the deepest grid level usable for this dimension: at
// level l the torus is divided into 2^(dim*l) cells and cell indices must
// fit a uint64 Morton code with dim*l <= 62.
func (s Space) MaxLevel() int {
	return 62 / s.dim
}

// Positions is a flat, stride-dim store of points on the torus.
type Positions struct {
	space Space
	data  []float64
}

// NewPositions allocates storage for n points in the given space.
func NewPositions(space Space, n int) *Positions {
	return &Positions{space: space, data: make([]float64, n*space.Dim())}
}

// NewPositionsRaw wraps an existing flat coordinate slice (stride Dim) as a
// position store without copying; deserializers use it to adopt buffers
// they already assembled. The slice length must be a multiple of Dim.
func NewPositionsRaw(space Space, data []float64) (*Positions, error) {
	if len(data)%space.Dim() != 0 {
		return nil, fmt.Errorf("torus: raw position data length %d is not a multiple of dim %d", len(data), space.Dim())
	}
	return &Positions{space: space, data: data}, nil
}

// Space returns the underlying space.
func (p *Positions) Space() Space { return p.space }

// Len returns the number of stored points.
func (p *Positions) Len() int { return len(p.data) / p.space.Dim() }

// At returns point i as a slice aliasing the backing store; callers must not
// retain it across mutations.
func (p *Positions) At(i int) []float64 {
	d := p.space.Dim()
	return p.data[i*d : (i+1)*d : (i+1)*d]
}

// Set copies pt into slot i.
func (p *Positions) Set(i int, pt []float64) {
	copy(p.At(i), pt)
}

// Dist returns the torus distance between stored points i and j.
func (p *Positions) Dist(i, j int) float64 {
	return p.space.Dist(p.At(i), p.At(j))
}

// Raw exposes the backing slice (length Len()*Dim()); used for serialization.
func (p *Positions) Raw() []float64 { return p.data }
