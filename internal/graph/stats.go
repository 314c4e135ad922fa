package graph

import (
	"math"

	"repro/internal/xrand"
)

// Structural statistics used by experiment E11 to validate the GIRG
// substrate against the theory quoted in the paper (Lemmas 7.2/7.3):
// expected degree Θ(w), power-law degree sequence, a unique giant component,
// ultra-small distances in the giant, and constant clustering.

// AverageDegree returns 2m/n.
func AverageDegree(g *Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// LocalClustering returns the clustering coefficient of vertex v: the
// fraction of neighbor pairs that are themselves adjacent. Degree < 2 gives
// 0.
func LocalClustering(g *Graph, v int) float64 {
	nbrs := g.Neighbors(v)
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	closed := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
				closed++
			}
		}
	}
	return 2 * float64(closed) / float64(k*(k-1))
}

// MeanClustering estimates the average local clustering coefficient. If
// sample <= 0 or >= n the exact average is computed, otherwise a uniform
// vertex sample of the given size is used (clustering is O(deg²) per vertex,
// so sampling keeps large graphs tractable).
func MeanClustering(g *Graph, sample int, rng *xrand.RNG) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	if sample <= 0 || sample >= n {
		sum := 0.0
		for v := 0; v < n; v++ {
			sum += LocalClustering(g, v)
		}
		return sum / float64(n)
	}
	sum := 0.0
	for i := 0; i < sample; i++ {
		sum += LocalClustering(g, rng.IntN(n))
	}
	return sum / float64(sample)
}

// SampleGiantDistances estimates the distribution of shortest-path distances
// between random vertex pairs in the giant component by running `sources`
// full BFS traversals from random giant vertices and collecting distances to
// all other giant vertices. Returns the collected distances (may be empty if
// the giant has fewer than two vertices).
func SampleGiantDistances(g *Graph, sources int, rng *xrand.RNG) []int {
	giant := GiantComponent(g)
	if len(giant) < 2 {
		return nil
	}
	var out []int
	for i := 0; i < sources; i++ {
		s := giant[rng.IntN(len(giant))]
		dist := BFS(g, s)
		for _, v := range giant {
			if v != s && dist[v] > 0 {
				out = append(out, int(dist[v]))
			}
		}
	}
	return out
}

// MeanGiantDistance estimates the average shortest-path distance in the
// giant component from the given number of BFS sources.
func MeanGiantDistance(g *Graph, sources int, rng *xrand.RNG) float64 {
	ds := SampleGiantDistances(g, sources, rng)
	if len(ds) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, d := range ds {
		sum += float64(d)
	}
	return sum / float64(len(ds))
}

// PowerLawExponentFit estimates the degree power-law exponent beta from the
// empirical complementary CDF by the standard discrete Hill/MLE estimator
// above kmin: beta = 1 + m / sum(ln(k_i/(kmin-0.5))). Vertices with degree
// below kmin are ignored. Returns NaN if fewer than 10 vertices qualify.
func PowerLawExponentFit(g *Graph, kmin int) float64 {
	if kmin < 1 {
		kmin = 1
	}
	sum := 0.0
	m := 0
	base := float64(kmin) - 0.5
	for v := 0; v < g.N(); v++ {
		k := g.Degree(v)
		if k >= kmin {
			sum += math.Log(float64(k) / base)
			m++
		}
	}
	if m < 10 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(m)/sum
}

// DegreeWeightCorrelation returns, per logarithmic weight bucket, the mean
// weight and mean degree of vertices in the bucket — the empirical check of
// E[deg(v)] = Θ(w_v) (Lemma 7.2). Buckets are powers of two of w/wmin.
func DegreeWeightCorrelation(g *Graph) (meanWeight, meanDegree []float64) {
	type acc struct {
		w, d float64
		n    int
	}
	var buckets []acc
	for v := 0; v < g.N(); v++ {
		w := g.Weight(v)
		b := 0
		if w > g.WMin() {
			b = int(math.Log2(w / g.WMin()))
		}
		for len(buckets) <= b {
			buckets = append(buckets, acc{})
		}
		buckets[b].w += w
		buckets[b].d += float64(g.Degree(v))
		buckets[b].n++
	}
	for _, b := range buckets {
		if b.n == 0 {
			continue
		}
		meanWeight = append(meanWeight, b.w/float64(b.n))
		meanDegree = append(meanDegree, b.d/float64(b.n))
	}
	return meanWeight, meanDegree
}

// Summary bundles the headline structural statistics of a graph.
type Summary struct {
	N             int
	M             int
	AvgDegree     float64
	MaxDegree     int
	Isolated      int
	Components    int
	GiantFraction float64
	Clustering    float64
}

// Summarize computes a Summary; clustering uses the given sample size.
func Summarize(g *Graph, clusteringSample int, rng *xrand.RNG) Summary {
	maxDeg, isolated := 0, 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d > maxDeg {
			maxDeg = d
		}
		if d == 0 {
			isolated++
		}
	}
	_, sizes, giant := Components(g)
	giantFrac := 0.0
	if g.N() > 0 {
		giantFrac = float64(sizes[giant]) / float64(g.N())
	}
	return Summary{
		N:             g.N(),
		M:             g.M(),
		AvgDegree:     AverageDegree(g),
		MaxDegree:     maxDeg,
		Isolated:      isolated,
		Components:    len(sizes),
		GiantFraction: giantFrac,
		Clustering:    MeanClustering(g, clusteringSample, rng),
	}
}
