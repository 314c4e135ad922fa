// Package xrand provides the deterministic random-number substrate used by
// every stochastic component of the repository: a seedable, splittable PRNG
// plus the non-uniform samplers the GIRG/HRG/Kleinberg generators need
// (power law, Poisson, binomial, exponential, and geometric skipping).
//
// All generators in this module take an explicit *RNG so that experiments are
// reproducible from a single seed. RNGs are not safe for concurrent use; use
// Split to derive independent streams for parallel work.
package xrand

import (
	"math"
)

// RNG is a deterministic pseudo-random number generator based on the PCG-XSL
// 128/64 design (the same generator the Go standard library adopted for
// math/rand/v2). It is reimplemented here so the repository controls the
// stream exactly and can split it deterministically.
type RNG struct {
	hi, lo uint64
}

// New returns an RNG seeded from a single 64-bit seed. Two distinct seeds
// yield streams that are independent for all practical purposes.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single 64-bit seed using two rounds
// of splitmix64, so that even adjacent seeds produce unrelated streams.
func (r *RNG) Seed(seed uint64) {
	r.lo = splitmix64(&seed)
	r.hi = splitmix64(&seed)
}

// Split returns a new RNG whose stream is independent of the receiver's
// continued output. It consumes one value from the receiver.
func (r *RNG) Split() *RNG {
	s := r.Uint64()
	return New(s)
}

// splitmix64 advances *x and returns a well-mixed 64-bit value. It is the
// standard seeding function recommended for initializing other PRNGs.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc.
	hi, lo := mul128(r.hi, r.lo, pcgMulHi, pcgMulLo)
	lo, carry := add64(lo, pcgIncLo)
	hi = hi + pcgIncHi + carry
	r.hi, r.lo = hi, lo
	// XSL-RR output permutation (as in PCG-DXSM family used by rand/v2 it is
	// a cheap mix; we use the classic xorshift-rotate output).
	return rotl64(hi^lo, uint(hi>>58))
}

func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	// (aHi*2^64 + aLo) * (bHi*2^64 + bLo) mod 2^128.
	hi, lo = mul64(aLo, bLo)
	hi += aHi*bLo + aLo*bHi
	return hi, lo
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

func add64(a, b uint64) (sum, carry uint64) {
	sum = a + b
	if sum < a {
		carry = 1
	}
	return sum, carry
}

func rotl64(x uint64, k uint) uint64 {
	k &= 63
	return x<<(64-k) | x>>k
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Float64Open returns a uniform value in the open interval (0, 1). It is the
// right primitive for inverse-CDF transforms that divide by the sample or
// take its logarithm.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN with non-positive n")
	}
	return int(r.Uint64N(uint64(n)))
}

// Uint64N returns a uniform value in [0, n) using Lemire's nearly-divisionless
// bounded rejection. It panics if n == 0.
func (r *RNG) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64N with zero n")
	}
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with rate 1.
func (r *RNG) Exp() float64 {
	return -math.Log(r.Float64Open())
}

// Normal returns a standard normal value using the polar (Marsaglia) method.
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// PowerLaw samples from the density f(w) = (beta-1) * wmin^(beta-1) * w^(-beta)
// on [wmin, inf), i.e. a Pareto distribution with tail exponent beta-1. This is
// exactly the GIRG weight distribution of the paper (Section 2.1) when
// 2 < beta < 3, though the sampler is valid for any beta > 1.
func (r *RNG) PowerLaw(wmin, beta float64) float64 {
	if wmin <= 0 {
		panic("xrand: PowerLaw requires wmin > 0")
	}
	if beta <= 1 {
		panic("xrand: PowerLaw requires beta > 1")
	}
	u := r.Float64Open()
	return wmin * math.Pow(u, -1/(beta-1))
}

// PowerLawTruncated samples from the same density truncated to [wmin, wmax].
func (r *RNG) PowerLawTruncated(wmin, wmax, beta float64) float64 {
	if wmax < wmin {
		panic("xrand: PowerLawTruncated requires wmax >= wmin")
	}
	// CDF on [wmin, wmax]: F(w) = (1 - (wmin/w)^(beta-1)) / (1 - (wmin/wmax)^(beta-1)).
	a := beta - 1
	tail := 1 - math.Pow(wmin/wmax, a)
	u := r.Float64() * tail
	return wmin * math.Pow(1-u, -1/a)
}

// Poisson samples from a Poisson distribution with mean lambda. Small means
// use Knuth's product method; large means use Hörmann's PTRS transformed
// rejection, which is exact and O(1) in expectation.
func (r *RNG) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		return r.poissonKnuth(lambda)
	default:
		return r.poissonPTRS(lambda)
	}
}

func (r *RNG) poissonKnuth(lambda float64) int {
	// Multiply uniforms until the product drops below e^-lambda.
	limit := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64Open()
		if p <= limit {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann (1993), "The transformed rejection method
// for generating Poisson random variables", algorithm PTRS.
func (r *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64Open()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// Binomial samples from Binomial(n, p). Small n·p uses direct simulation via
// geometric skipping; the general case uses the BTPE-free inversion for small
// means and a normal-approximation-free exact split for large n.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	mean := float64(n) * p
	if mean < 32 {
		// Count successes by skipping geometrically between them.
		count := 0
		i := r.GeometricSkip(p)
		for i < n {
			count++
			i += 1 + r.GeometricSkip(p)
		}
		return count
	}
	// Exact recursive split: X ~ Bin(n,p) can be decomposed around the median
	// of a Beta(k, n+1-k) order statistic. This is the standard
	// divide-and-conquer exact method (see Farach-Colton & Tsai).
	k := n/2 + 1
	x := r.betaMedianSplit(k, n+1-k)
	if x >= p {
		return r.Binomial(k-1, p/x)
	}
	return k + r.Binomial(n-k, (p-x)/(1-x))
}

// betaMedianSplit samples from Beta(a, b) for integer a, b >= 1 using the
// Jöhnk/ratio-of-gammas method via two gamma variates.
func (r *RNG) betaMedianSplit(a, b int) float64 {
	x := r.gammaInt(a)
	y := r.gammaInt(b)
	return x / (x + y)
}

// gammaInt samples Gamma(shape=k, scale=1) for integer k >= 1 as a sum of
// exponentials for small k and Marsaglia–Tsang for large k.
func (r *RNG) gammaInt(k int) float64 {
	if k < 16 {
		sum := 0.0
		for i := 0; i < k; i++ {
			sum += r.Exp()
		}
		return sum
	}
	d := float64(k) - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// GeometricSkip returns the number of failures before the first success in a
// Bernoulli(p) sequence, i.e. a Geometric(p) variate supported on {0,1,...}.
// It is the core primitive of the type-II GIRG edge sampler: to visit each of
// m candidates independently with probability p, start at index GeometricSkip
// and repeatedly advance by 1+GeometricSkip.
func (r *RNG) GeometricSkip(p float64) int {
	return r.GeometricSkipLog(p, math.Log1p(-p))
}

// GeometricSkipLog is GeometricSkip(p) handed log1mp = math.Log1p(-p) by a
// caller that draws many skips at one p and takes the logarithm once.
func (r *RNG) GeometricSkipLog(p, log1mp float64) int {
	if p >= 1 {
		return 0
	}
	const never = 1 << 62 // beyond any candidate count, exactly float-representable
	if p <= 0 {
		return never
	}
	u := r.Float64Open()
	skip := math.Floor(math.Log(u) / log1mp)
	if skip > float64(never) {
		return never
	}
	return int(skip)
}

// Perm fills out with a uniformly random permutation of [0, len(out)).
func (r *RNG) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Shuffle permutes the given slice of ints in place.
func (r *RNG) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Sample returns k distinct uniform indices from [0, n) in increasing order
// using Floyd's algorithm. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("xrand: Sample with k > n")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion sort: k is typically tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
