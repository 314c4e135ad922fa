package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	child := r.Split()
	// The child stream must not replay the parent stream.
	parentNext := r.Uint64()
	childNext := child.Uint64()
	if parentNext == childNext {
		t.Fatal("split child replays parent stream")
	}
	// Splitting is deterministic given the parent state.
	r2 := New(7)
	child2 := r2.Split()
	if child.Uint64() == 0 && child2.Uint64() == 0 {
		t.Skip("degenerate")
	}
	c1, c2 := New(7).Split(), New(7).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntNBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntNUniform(t *testing.T) {
	r := New(9)
	const n, trials = 10, 200000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.IntN(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestBernoulli(t *testing.T) {
	r := New(13)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %v", p)
	}
}

func TestPowerLawSupport(t *testing.T) {
	r := New(17)
	const wmin, beta = 1.5, 2.5
	for i := 0; i < 100000; i++ {
		w := r.PowerLaw(wmin, beta)
		if w < wmin {
			t.Fatalf("PowerLaw sample %v below wmin %v", w, wmin)
		}
	}
}

func TestPowerLawTail(t *testing.T) {
	// P(W >= w) = (wmin/w)^(beta-1); check at a few thresholds.
	r := New(19)
	const wmin, beta = 1.0, 2.5
	const n = 400000
	thresholds := []float64{2, 4, 8, 16}
	counts := make([]int, len(thresholds))
	for i := 0; i < n; i++ {
		w := r.PowerLaw(wmin, beta)
		for j, th := range thresholds {
			if w >= th {
				counts[j]++
			}
		}
	}
	for j, th := range thresholds {
		want := math.Pow(wmin/th, beta-1)
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 4*math.Sqrt(want*(1-want)/n)+0.002 {
			t.Errorf("tail P(W>=%v): got %v want %v", th, got, want)
		}
	}
}

func TestPowerLawMean(t *testing.T) {
	// E[W] = wmin*(beta-1)/(beta-2) for beta > 2.
	r := New(23)
	const wmin, beta = 1.0, 2.8
	const n = 2000000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.PowerLaw(wmin, beta)
	}
	got := sum / n
	want := wmin * (beta - 1) / (beta - 2)
	// The mean estimator of a heavy-tailed law converges slowly; allow 5%.
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("power-law mean: got %v want %v", got, want)
	}
}

func TestPowerLawTruncated(t *testing.T) {
	r := New(29)
	const wmin, wmax, beta = 1.0, 10.0, 2.5
	for i := 0; i < 100000; i++ {
		w := r.PowerLawTruncated(wmin, wmax, beta)
		if w < wmin || w > wmax {
			t.Fatalf("truncated sample %v outside [%v, %v]", w, wmin, wmax)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(31)
	for _, lambda := range []float64{0.5, 3, 20, 50, 500} {
		const n = 100000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(lambda))
			sum += k
			sumsq += k * k
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		tol := 6 * math.Sqrt(lambda/n)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%v) mean %v (tol %v)", lambda, mean, tol)
		}
		if math.Abs(variance-lambda)/lambda > 0.1 {
			t.Errorf("Poisson(%v) variance %v", lambda, variance)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(37)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestPoissonPTRSMatchesKnuthDistribution(t *testing.T) {
	// At lambda near the method switch both should agree in distribution;
	// compare the empirical CDF at the mean.
	const lambda = 30.0
	const n = 200000
	below := func(sample func() int) float64 {
		c := 0
		for i := 0; i < n; i++ {
			if sample() <= int(lambda) {
				c++
			}
		}
		return float64(c) / n
	}
	rk := New(41)
	rp := New(43)
	pk := below(func() int { return rk.poissonKnuth(lambda) })
	pp := below(func() int { return rp.poissonPTRS(lambda) })
	if math.Abs(pk-pp) > 0.01 {
		t.Fatalf("Knuth vs PTRS CDF at mean: %v vs %v", pk, pp)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(47)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.5}, {100, 0.03}, {1000, 0.7}, {100000, 0.001}, {500, 0.9},
	}
	for _, tc := range cases {
		const trials = 30000
		sum := 0.0
		for i := 0; i < trials; i++ {
			k := r.Binomial(tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, k)
			}
			sum += float64(k)
		}
		mean := sum / trials
		want := float64(tc.n) * tc.p
		sd := math.Sqrt(float64(tc.n) * tc.p * (1 - tc.p))
		if math.Abs(mean-want) > 6*sd/math.Sqrt(trials)+1e-9 {
			t.Errorf("Binomial(%d,%v) mean %v want %v", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(53)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0,p) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(n,0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(n,1) != n")
	}
}

func TestGeometricSkipDistribution(t *testing.T) {
	r := New(59)
	const p = 0.2
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.GeometricSkip(p))
	}
	mean := sum / n
	want := (1 - p) / p
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("GeometricSkip(%v) mean %v want %v", p, mean, want)
	}
}

func TestGeometricSkipEdges(t *testing.T) {
	r := New(61)
	if r.GeometricSkip(1) != 0 {
		t.Fatal("GeometricSkip(1) must be 0")
	}
	if r.GeometricSkip(0) < 1<<62 {
		t.Fatal("GeometricSkip(0) must be effectively infinite")
	}
}

// TestGeometricSkipLogDrawForDraw runs the skipper that is handed
// log1p(-p) against GeometricSkip as it read before the logarithm was
// hoisted, on one seed each: same skips, same number of draws.
func TestGeometricSkipLogDrawForDraw(t *testing.T) {
	ref := func(r *RNG, p float64) int {
		if p >= 1 {
			return 0
		}
		const never = 1 << 62
		if p <= 0 {
			return never
		}
		skip := math.Floor(math.Log(r.Float64Open()) / math.Log1p(-p))
		if skip > float64(never) {
			return never
		}
		return int(skip)
	}
	for _, p := range []float64{0, 1e-12, 1e-300, 0.3, 1 - 1e-16, 1, 1.5, -0.1} {
		a, b, c := New(83), New(83), New(83)
		log1mp := math.Log1p(-p)
		for i := 0; i < 2000; i++ {
			want := ref(a, p)
			if got := b.GeometricSkipLog(p, log1mp); got != want {
				t.Fatalf("p=%v draw %d: GeometricSkipLog %d, want %d", p, i, got, want)
			}
			if got := c.GeometricSkip(p); got != want {
				t.Fatalf("p=%v draw %d: GeometricSkip %d, want %d", p, i, got, want)
			}
		}
		if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != y || x != z {
			t.Fatalf("p=%v: streams diverged after the draws", p)
		}
	}
}

func TestGeometricSkipMatchesBernoulliScan(t *testing.T) {
	// Using skips to visit candidates must hit each index with probability p.
	const p = 0.05
	const m = 200 // candidates
	const trials = 50000
	r := New(67)
	hits := make([]int, m)
	for tr := 0; tr < trials; tr++ {
		i := r.GeometricSkip(p)
		for i < m {
			hits[i]++
			i += 1 + r.GeometricSkip(p)
		}
	}
	for idx, h := range hits {
		got := float64(h) / trials
		if math.Abs(got-p) > 5*math.Sqrt(p*(1-p)/trials) {
			t.Fatalf("index %d hit rate %v want %v", idx, got, p)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(71)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
	}
	if math.Abs(sum/n-1) > 0.02 {
		t.Fatalf("Exp mean %v", sum/n)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(73)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Fatalf("Normal moments mean=%v var=%v", mean, variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(79)
	out := make([]int, 100)
	r.Perm(out)
	seen := make([]bool, 100)
	for _, v := range out {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestSampleDistinctSorted(t *testing.T) {
	r := New(83)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(50)
		k := r.IntN(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) returned %d values", n, k, len(s))
		}
		for i, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("sample value %d out of range", v)
			}
			if i > 0 && s[i-1] >= v {
				t.Fatalf("sample not strictly increasing: %v", s)
			}
		}
	}
}

func TestQuickUint64NInRange(t *testing.T) {
	r := New(89)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64N(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPowerLawAboveMin(t *testing.T) {
	r := New(97)
	f := func(seed uint16) bool {
		wmin := 0.1 + float64(seed%100)/10
		beta := 2.01 + float64(seed%90)/100
		return r.PowerLaw(wmin, beta) >= wmin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(1e6)
	}
}

func BenchmarkPowerLaw(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.PowerLaw(1, 2.5)
	}
}
