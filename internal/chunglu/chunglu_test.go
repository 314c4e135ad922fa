package chunglu

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 1, Beta: 2.5, WMin: 1},
		{N: 100, Beta: 2, WMin: 1},
		{N: 100, Beta: 2.5, WMin: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestGenerateBasic(t *testing.T) {
	g, err := Generate(DefaultParams(2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	// E[deg_v] ~ w_v (up to the min cap), E[W] = 3 for beta = 2.5.
	if avg < 1 || avg > 8 {
		t.Fatalf("average degree %v, want ~3", avg)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultParams(800), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultParams(800), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts %d vs %d", a.M(), b.M())
	}
}

// TestFastMatchesNaive compares edge-count distributions of the skipping
// sampler against the quadratic reference over many seeds.
func TestFastMatchesNaive(t *testing.T) {
	p := DefaultParams(600)
	const reps = 40
	mean := func(gen func(Params, uint64) (*graph.Graph, error), base uint64) float64 {
		sum := 0.0
		for r := uint64(0); r < reps; r++ {
			g, err := gen(p, base+r)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(g.M())
		}
		return sum / reps
	}
	fast := mean(Generate, 100)
	naive := mean(generateNaive, 100) // same seeds -> same weights per rep
	// Means over the same weight draws; difference is only edge-coin noise.
	if math.Abs(fast-naive)/naive > 0.05 {
		t.Fatalf("fast mean edges %v vs naive %v", fast, naive)
	}
}

func TestDegreeTracksWeight(t *testing.T) {
	// Lemma 7.1's marginal without geometry: E[deg(v)] ~ w_v. Compare mean
	// degree of the heaviest decile against their mean weight.
	g, err := Generate(DefaultParams(20000), 3)
	if err != nil {
		t.Fatal(err)
	}
	sumW, sumD, count := 0.0, 0.0, 0
	for v := 0; v < g.N(); v++ {
		if w := g.Weight(v); w > 3 && w < 100 {
			sumW += w
			sumD += float64(g.Degree(v))
			count++
		}
	}
	if count < 100 {
		t.Fatalf("only %d mid-weight vertices", count)
	}
	ratio := sumD / sumW
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("degree/weight ratio %v, want ~1", ratio)
	}
}

func TestClusteringVanishes(t *testing.T) {
	// The point of E14: without geometry, clustering tends to zero (here:
	// tiny), unlike the constant clustering of GIRGs.
	g, err := Generate(DefaultParams(20000), 5)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.MeanClustering(g, 4000, xrand.New(6))
	if c > 0.05 {
		t.Fatalf("Chung-Lu clustering %v unexpectedly high", c)
	}
}

func TestNoSelfLoopsNoDuplicates(t *testing.T) {
	g, err := Generate(DefaultParams(3000), 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) == v {
				t.Fatalf("self loop at %d", v)
			}
			if i > 0 && nbrs[i-1] == u {
				t.Fatalf("duplicate edge at %d", v)
			}
		}
	}
}

func BenchmarkGenerate20k(b *testing.B) {
	p := DefaultParams(20000)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// generateNaive is the quadratic reference sampler that validates Generate.
func generateNaive(p Params, seed uint64) (*graph.Graph, error) {
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
	b, err := graph.NewBuilder(p.N, nil, weights, float64(p.N), p.WMin)
	if err != nil {
		return nil, err
	}
	for u := 0; u < p.N; u++ {
		for v := u + 1; v < p.N; v++ {
			q := weights[u] * weights[v] / total
			if q > 1 {
				q = 1
			}
			if rng.Bernoulli(q) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Finish(), nil
}
