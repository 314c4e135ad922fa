package girg

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestParamsValidate(t *testing.T) {
	base := DefaultParams(1000)
	if err := base.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutate := func(f func(*Params)) Params {
		p := base
		f(&p)
		return p
	}
	bad := []Params{
		mutate(func(p *Params) { p.N = 0 }),
		mutate(func(p *Params) { p.Dim = 0 }),
		mutate(func(p *Params) { p.Dim = 99 }),
		mutate(func(p *Params) { p.Beta = 2 }),
		mutate(func(p *Params) { p.Alpha = 1 }),
		mutate(func(p *Params) { p.Alpha = 0.5 }),
		mutate(func(p *Params) { p.WMin = 0 }),
		mutate(func(p *Params) { p.Lambda = 0 }),
		mutate(func(p *Params) { p.WMax = 0.5 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	inf := mutate(func(p *Params) { p.Alpha = math.Inf(1) })
	if err := inf.Validate(); err != nil {
		t.Errorf("threshold params rejected: %v", err)
	}
	if !inf.Threshold() || base.Threshold() {
		t.Error("Threshold() misreports")
	}
}

func TestKernelSoft(t *testing.T) {
	p := DefaultParams(100)
	p.Alpha = 2
	k := NewKernel(p)
	// K = wu*wv/(wmin*n) = 1*1/100 = 0.01.
	// distPow = 0.01 -> ratio 1 -> p = 1 (saturated).
	if got := k.Prob(1, 1, 0.01); got != 1 {
		t.Errorf("Prob at saturation = %v, want 1", got)
	}
	// distPow = 0.04 -> ratio 1/4 -> p = (1/4)^2 = 1/16.
	if got := k.Prob(1, 1, 0.04); math.Abs(got-1.0/16) > 1e-12 {
		t.Errorf("Prob = %v, want 1/16", got)
	}
	// Zero distance connects surely.
	if got := k.Prob(1, 1, 0); got != 1 {
		t.Errorf("Prob at distance 0 = %v", got)
	}
}

func TestKernelThreshold(t *testing.T) {
	p := DefaultParams(100)
	p.Alpha = math.Inf(1)
	k := NewKernel(p)
	if got := k.Prob(1, 1, 0.0099); got != 1 {
		t.Errorf("inside threshold: %v", got)
	}
	if got := k.Prob(1, 1, 0.0101); got != 0 {
		t.Errorf("outside threshold: %v", got)
	}
}

func TestKernelMonotonicity(t *testing.T) {
	p := DefaultParams(1000)
	k := NewKernel(p)
	rng := xrand.New(5)
	for trial := 0; trial < 2000; trial++ {
		wu := rng.PowerLaw(1, 2.5)
		wv := rng.PowerLaw(1, 2.5)
		d1 := rng.Float64() * 0.25
		d2 := d1 + rng.Float64()*0.25
		p1 := k.Prob(wu, wv, d1)
		p2 := k.Prob(wu, wv, d2)
		if p2 > p1+1e-15 {
			t.Fatalf("kernel not decreasing in distance: %v < %v", p1, p2)
		}
		if k.Prob(2*wu, wv, d2) < p2 {
			t.Fatalf("kernel not increasing in weight")
		}
		// Symmetry in the two weights.
		if math.Abs(k.Prob(wu, wv, d1)-k.Prob(wv, wu, d1)) > 1e-15 {
			t.Fatalf("kernel not symmetric")
		}
	}
}

func TestSaturationDistPow(t *testing.T) {
	for _, alpha := range []float64{1.5, 2, 5, math.Inf(1)} {
		p := DefaultParams(500)
		p.Alpha = alpha
		k := NewKernel(p)
		for _, wuwv := range []float64{1, 4, 100} {
			sat := k.SaturationDistPow(wuwv)
			w := math.Sqrt(wuwv)
			if got := k.Prob(w, w, sat*0.999); got != 1 {
				t.Errorf("alpha=%v wuwv=%v: Prob just inside saturation = %v", alpha, wuwv, got)
			}
			if got := k.Prob(w, w, sat*1.001); got >= 1 {
				t.Errorf("alpha=%v wuwv=%v: Prob just outside saturation = %v", alpha, wuwv, got)
			}
		}
	}
}

func TestSampleVerticesCounts(t *testing.T) {
	p := DefaultParams(500)
	p.FixedN = true
	vs, err := SampleVertices(p, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs.N() != 500 {
		t.Fatalf("FixedN: got %d vertices", vs.N())
	}
	p.FixedN = false
	// Poisson(500) should be within 5 sigma of 500.
	vs, err = SampleVertices(p, xrand.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(vs.N()) - 500); d > 5*math.Sqrt(500) {
		t.Fatalf("Poisson vertex count %d too far from 500", vs.N())
	}
	for i, w := range vs.W {
		if w < p.WMin {
			t.Fatalf("vertex %d weight %v below wmin", i, w)
		}
	}
}

func TestSampleVerticesPlanted(t *testing.T) {
	p := DefaultParams(100)
	p.FixedN = true
	planted := []Plant{
		{Pos: []float64{0.25, 0.75}, W: 3},
		{Pos: []float64{1.1, -0.2}, W: 2}, // wraps to (0.1, 0.8)
		{W: 5},                            // random position
	}
	vs, err := SampleVertices(p, xrand.New(3), planted)
	if err != nil {
		t.Fatal(err)
	}
	if vs.N() != 103 || vs.Planted != 3 {
		t.Fatalf("N=%d planted=%d", vs.N(), vs.Planted)
	}
	if got := vs.Pos.At(0); got[0] != 0.25 || got[1] != 0.75 {
		t.Fatalf("planted 0 at %v", got)
	}
	if got := vs.Pos.At(1); math.Abs(got[0]-0.1) > 1e-12 || math.Abs(got[1]-0.8) > 1e-12 {
		t.Fatalf("planted 1 at %v (wrap failed)", got)
	}
	if vs.W[0] != 3 || vs.W[1] != 2 || vs.W[2] != 5 {
		t.Fatalf("planted weights %v", vs.W[:3])
	}
}

func TestSampleVerticesPlantedErrors(t *testing.T) {
	p := DefaultParams(100)
	if _, err := SampleVertices(p, xrand.New(1), []Plant{{W: 0.5}}); err == nil {
		t.Error("weight below wmin accepted")
	}
	if _, err := SampleVertices(p, xrand.New(1), []Plant{{W: 1, Pos: []float64{0.5}}}); err == nil {
		t.Error("wrong-dimension position accepted")
	}
	p.WMax = 10
	if _, err := SampleVertices(p, xrand.New(1), []Plant{{W: 20}}); err == nil {
		t.Error("weight above wmax accepted")
	}
}

// TestSampleVerticesPlantedNonFinite: Wrap maps NaN and +-Inf to NaN and
// NaN < wmin is false, so both used to reach CellCoord and every kernel
// evaluation.
func TestSampleVerticesPlantedNonFinite(t *testing.T) {
	p := DefaultParams(100)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := SampleVertices(p, xrand.New(1), []Plant{{W: 2}, {W: 2, Pos: []float64{0.5, bad}}})
		if err == nil || !strings.Contains(err.Error(), "planted vertex 1") {
			t.Errorf("coordinate %v: error %v does not name planted vertex 1", bad, err)
		}
		if bad < 0 {
			continue // -Inf as a weight is already below wmin
		}
		_, err = SampleVertices(p, xrand.New(1), []Plant{{W: 2}, {W: 2}, {W: bad}})
		if err == nil || !strings.Contains(err.Error(), "planted vertex 2") {
			t.Errorf("weight %v: error %v does not name planted vertex 2", bad, err)
		}
	}
	vs, err := SampleVertices(p, xrand.New(1), []Plant{{W: 2, Pos: []float64{-3.25, 1e6 + 0.5}}})
	if err != nil {
		t.Fatalf("finite out-of-range coordinates rejected: %v", err)
	}
	if got := vs.Pos.At(0); got[0] != 0.75 || got[1] != 0.5 {
		t.Fatalf("planted (-3.25, 1e6+0.5) wrapped to %v, want (0.75, 0.5)", got)
	}
}

// probRef is Kernel.Prob as it read while every soft evaluation went
// through math.Pow.
func probRef(k Kernel, wu, wv, distPow float64) float64 {
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
	x := k.lambda * math.Pow(kk/distPow, k.alpha)
	if x >= 1 {
		return 1
	}
	return x
}

// TestKernelProbMatchesPow compares Prob with the math.Pow reference bit for
// bit: random triples across the sampler's range and far outside it, then
// the edges — subnormal and huge ratios on both sides of the r*r guard, a
// zero distance, saturated pairs, NaN.
func TestKernelProbMatchesPow(t *testing.T) {
	rng := xrand.New(41)
	edge := []float64{0, 5e-324, 1e-310, 0x1p-1000, 0x1p-501, 0x1p-500, 0x1p-499, 1e-160, 1e-155, 1e-150,
		0.5, 1, 3, 1e150, 1e155, 1e160, 0x1p499, 0x1p500, 0x1p501, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, alpha := range []float64{2, 1.5, 2.5, 3, math.Inf(1)} {
		for _, lambda := range []float64{1, 0.005, 8} {
			p := DefaultParams(20000)
			p.Alpha, p.Lambda = alpha, lambda
			k := NewKernel(p)
			check := func(wu, wv, dp float64) {
				got, want := k.Prob(wu, wv, dp), probRef(k, wu, wv, dp)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("alpha %v lambda %v: Prob(%v, %v, %v) = %v (%#x), want %v (%#x)", alpha, lambda,
						wu, wv, dp, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for i := 0; i < 120000; i++ {
				wu, wv := rng.PowerLaw(1, 2.5), rng.PowerLaw(1, 2.1)
				check(wu, wv, rng.Float64()*rng.Float64()) // the sampler's range
				check(wu, wv, math.Exp(1400*(rng.Float64()-0.5)))
				check(math.Exp(700*rng.Float64()), math.Exp(700*rng.Float64()), math.Exp(1400*(rng.Float64()-0.5)))
			}
			for _, wu := range edge {
				for _, dp := range edge {
					check(wu, 1, dp)
					check(wu, 1e5, dp)
				}
			}
		}
	}
}

func TestWMaxTruncation(t *testing.T) {
	p := DefaultParams(2000)
	p.FixedN = true
	p.WMax = 8
	vs, err := SampleVertices(p, xrand.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range vs.W {
		if w > 8 || w < 1 {
			t.Fatalf("weight %v outside [1, 8]", w)
		}
	}
}

// expectedEdges computes the exact expected edge count of a fixed vertex set.
func expectedEdges(p Params, vs *Vertices) float64 {
	k := NewKernel(p)
	space := vs.Pos.Space()
	sum := 0.0
	for u := 0; u < vs.N(); u++ {
		for v := u + 1; v < vs.N(); v++ {
			sum += k.Prob(vs.W[u], vs.W[v], space.DistPow(vs.Pos.At(u), vs.Pos.At(v)))
		}
	}
	return sum
}

// TestThresholdSamplersIdentical is the strongest sampler test: with the
// threshold kernel the edge set is a deterministic function of the vertex
// set, so the naive and fast samplers must produce exactly the same graph —
// covering every pair exactly once across all layer pairs, levels and cell
// types.
func TestThresholdSamplersIdentical(t *testing.T) {
	for _, tc := range []struct {
		dim    int
		lambda float64
		n      float64
	}{
		{1, 1, 400}, {2, 1, 400}, {3, 1, 300},
		{2, 20, 300},   // large saturation radius -> shallow comparison levels
		{2, 0.05, 600}, // small radius -> deep comparison levels
	} {
		p := DefaultParams(tc.n)
		p.Dim = tc.dim
		p.Alpha = math.Inf(1)
		p.Lambda = tc.lambda
		p.FixedN = true
		vs, err := SampleVertices(p, xrand.New(uint64(tc.dim)*1000+uint64(tc.n)), nil)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := GenerateEdges(p, vs, xrand.New(1), SamplerNaive)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := GenerateEdges(p, vs, xrand.New(2), SamplerFast)
		if err != nil {
			t.Fatal(err)
		}
		if gn.M() != gf.M() {
			t.Fatalf("dim=%d lambda=%v: edge counts differ: naive %d, fast %d",
				tc.dim, tc.lambda, gn.M(), gf.M())
		}
		for v := 0; v < gn.N(); v++ {
			a, b := gn.Neighbors(v), gf.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("dim=%d lambda=%v: degree of %d differs: %d vs %d", tc.dim, tc.lambda, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("dim=%d lambda=%v: adjacency of %d differs", tc.dim, tc.lambda, v)
				}
			}
		}
	}
}

// TestFastSamplerNoDuplicates forces p = 1 for every pair and checks the
// fast sampler emits each pair exactly once (complete coverage, no dupes).
func TestFastSamplerNoDuplicates(t *testing.T) {
	p := DefaultParams(150)
	p.Lambda = 1e12
	p.FixedN = true
	vs, err := SampleVertices(p, xrand.New(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(vs.N(), vs.Pos, vs.W, p.N, p.WMin)
	if err != nil {
		t.Fatal(err)
	}
	FastSampler(p, vs, xrand.New(8), b)
	want := vs.N() * (vs.N() - 1) / 2
	if b.EdgeCount() != want {
		t.Fatalf("complete graph: emitted %d raw edges, want %d", b.EdgeCount(), want)
	}
	if g := b.Finish(); g.M() != want {
		t.Fatalf("complete graph: %d edges after dedup, want %d", g.M(), want)
	}
}

// TestSamplersAgreeSoftKernel compares mean edge counts of both samplers
// against the exact expectation for a fixed vertex set.
func TestSamplersAgreeSoftKernel(t *testing.T) {
	for _, alpha := range []float64{1.5, 3} {
		p := DefaultParams(300)
		p.Alpha = alpha
		p.FixedN = true
		vs, err := SampleVertices(p, xrand.New(11), nil)
		if err != nil {
			t.Fatal(err)
		}
		mu := expectedEdges(p, vs)
		const reps = 40
		run := func(kind SamplerKind, seed uint64) float64 {
			sum := 0.0
			for r := 0; r < reps; r++ {
				g, err := GenerateEdges(p, vs, xrand.New(seed+uint64(r)), kind)
				if err != nil {
					t.Fatal(err)
				}
				sum += float64(g.M())
			}
			return sum / reps
		}
		meanNaive := run(SamplerNaive, 100)
		meanFast := run(SamplerFast, 200)
		tol := 5 * math.Sqrt(mu/reps)
		if math.Abs(meanNaive-mu) > tol {
			t.Errorf("alpha=%v: naive mean %v vs exact %v (tol %v)", alpha, meanNaive, mu, tol)
		}
		if math.Abs(meanFast-mu) > tol {
			t.Errorf("alpha=%v: fast mean %v vs exact %v (tol %v)", alpha, meanFast, mu, tol)
		}
	}
}

// TestPlantedDegreesScaleWithWeight checks Lemma 7.2: E[deg(v)] = Theta(w_v),
// by planting vertices of weights {2, 8, 32} and comparing mean degrees.
func TestPlantedDegreesScaleWithWeight(t *testing.T) {
	p := DefaultParams(3000)
	p.FixedN = true
	planted := []Plant{{W: 2}, {W: 8}, {W: 32}}
	const reps = 25
	var deg [3]float64
	for r := 0; r < reps; r++ {
		g, err := Generate(p, uint64(1000+r), Options{Planted: planted})
		if err != nil {
			t.Fatal(err)
		}
		for i := range deg {
			deg[i] += float64(g.Degree(i))
		}
	}
	for i := range deg {
		deg[i] /= reps
	}
	// Ratios of expected degrees should track the weight ratios (4x each).
	r1 := deg[1] / deg[0]
	r2 := deg[2] / deg[1]
	if r1 < 2.5 || r1 > 6 || r2 < 2.5 || r2 > 6 {
		t.Fatalf("degree scaling broken: degs %v, ratios %v %v", deg, r1, r2)
	}
}

// TestMarginalConnectionProbability checks Lemma 7.1: over random positions,
// Pr[u ~ v | w_u, w_v] = Theta(min(w_u w_v / (w_min n), 1)).
func TestMarginalConnectionProbability(t *testing.T) {
	p := DefaultParams(200)
	k := NewKernel(p)
	space, rng := mustSpace(t, p.Dim), xrand.New(13)
	const trials = 300000
	x := make([]float64, p.Dim)
	y := make([]float64, p.Dim)
	// For small kk = wprod/(wmin n) the exact marginal is
	// 2^d * alpha/(alpha-1) * kk (integrating the kernel over the torus).
	theta := math.Pow(2, float64(p.Dim)) * p.Alpha / (p.Alpha - 1)
	for _, wprod := range []float64{1, 5, 10} {
		w := math.Sqrt(wprod)
		sum := 0.0
		for i := 0; i < trials; i++ {
			for j := range x {
				x[j] = rng.Float64()
				y[j] = rng.Float64()
			}
			sum += k.Prob(w, w, space.DistPow(x, y))
		}
		got := sum / trials
		want := theta * wprod / (p.WMin * p.N)
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("marginal prob for wprod=%v: got %v, want %v", wprod, got, want)
		}
	}
}

func mustSpace(t *testing.T, dim int) spaceIface {
	t.Helper()
	p := DefaultParams(10)
	p.Dim = dim
	vs, err := SampleVertices(p, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return vs.Pos.Space()
}

type spaceIface interface {
	DistPow(x, y []float64) float64
}

func TestGenerateEndToEnd(t *testing.T) {
	p := DefaultParams(1000)
	g, err := Generate(p, 42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 800 || g.N() > 1200 {
		t.Fatalf("vertex count %d", g.N())
	}
	if g.M() == 0 {
		t.Fatal("no edges")
	}
	// With lambda = 1 the kernel constants give E[deg | w] ~ 2^d * alpha/(alpha-1)
	// * E[W]/wmin * w = 24w here, capped by min(.,1) for heavy vertices.
	avg := 2 * float64(g.M()) / float64(g.N())
	if avg < 20 || avg > 90 {
		t.Fatalf("implausible average degree %v", avg)
	}
	if g.Intensity() != p.N || g.WMin() != p.WMin {
		t.Fatal("model params not propagated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams(500)
	g1, err := Generate(p, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(p, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("same seed produced different graphs: (%d,%d) vs (%d,%d)",
			g1.N(), g1.M(), g2.N(), g2.M())
	}
	for v := 0; v < g1.N(); v++ {
		a, b := g1.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree of %d differs across runs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency of %d differs across runs", v)
			}
		}
	}
}

func TestGenerateInvalidParams(t *testing.T) {
	p := DefaultParams(100)
	p.Beta = 1.5
	if _, err := Generate(p, 1, Options{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestGenerateUnknownSampler(t *testing.T) {
	p := DefaultParams(100)
	if _, err := Generate(p, 1, Options{Sampler: SamplerKind(99)}); err == nil {
		t.Fatal("unknown sampler accepted")
	}
}

func TestDegreeDistributionPowerLaw(t *testing.T) {
	// The degree sequence should be scale-free with exponent ~ beta
	// (Section 1.1 claim (2)). Fit in the tail and allow a generous band.
	p := DefaultParams(30000)
	p.Beta = 2.5
	p.FixedN = true
	g, err := Generate(p, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The k^-beta tail appears above the mean-degree scale (~24 here), so
	// fit well above it.
	beta := graph.PowerLawExponentFit(g, 150)
	if math.IsNaN(beta) || beta < 2.15 || beta > 2.85 {
		t.Fatalf("degree exponent %v, want ~2.5", beta)
	}
}

func TestGiantComponentExists(t *testing.T) {
	p := DefaultParams(5000)
	p.WMin = 2 // denser -> clear giant
	g, err := Generate(p, 21, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, sizes, giant := graph.Components(g)
	frac := float64(sizes[giant]) / float64(g.N())
	if frac < 0.5 {
		t.Fatalf("giant component fraction %v, want > 0.5", frac)
	}
}

func TestClusteringIsConstant(t *testing.T) {
	// GIRGs have constant (non-vanishing) clustering; check it stays well
	// above the Chung-Lu/Erdos-Renyi level at two sizes.
	for _, n := range []float64{2000, 8000} {
		p := DefaultParams(n)
		p.FixedN = true
		g, err := Generate(p, 31, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := graph.MeanClustering(g, 2000, xrand.New(1))
		if c < 0.05 {
			t.Fatalf("n=%v: clustering %v too small", n, c)
		}
	}
}

func BenchmarkNaiveSampler1k(b *testing.B) {
	p := DefaultParams(1000)
	p.FixedN = true
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, uint64(i), Options{Sampler: SamplerNaive}); err != nil {
			b.Fatal(err)
		}
	}
}

// rngFor builds a fresh RNG for the L2/calibration tests.
func rngFor(seed uint64) *xrand.RNG { return xrand.New(seed) }

// TestThresholdIdentityQuick fuzzes the fast sampler against the naive
// reference over random parameter configurations; the threshold kernel
// makes the comparison exact.
func TestThresholdIdentityQuick(t *testing.T) {
	rng := xrand.New(777)
	for trial := 0; trial < 15; trial++ {
		p := DefaultParams(float64(100 + rng.IntN(400)))
		p.Dim = 1 + rng.IntN(3)
		p.Alpha = math.Inf(1)
		p.Beta = 2.05 + rng.Float64()*0.9
		p.WMin = 0.5 + rng.Float64()*2
		p.Lambda = math.Pow(10, rng.Float64()*3-2) // 0.01 .. 10
		p.FixedN = true
		vs, err := SampleVertices(p, xrand.New(uint64(trial)+5000), nil)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := GenerateEdges(p, vs, xrand.New(1), SamplerNaive)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := GenerateEdges(p, vs, xrand.New(2), SamplerFast)
		if err != nil {
			t.Fatal(err)
		}
		if gn.M() != gf.M() {
			t.Fatalf("trial %d (%+v): %d vs %d edges", trial, p, gn.M(), gf.M())
		}
		for v := 0; v < gn.N(); v++ {
			a, b := gn.Neighbors(v), gf.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("trial %d: degree of %d differs", trial, v)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: adjacency of %d differs", trial, v)
				}
			}
		}
	}
}
