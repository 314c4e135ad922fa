package route

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// kernelGraph builds the complete graph on the given points (coords[v] has
// the space's dimension; weights may be nil), so that every adjacency list
// holds every other vertex and one scan per vertex exercises the whole
// kernel. It goes through graph.NewBuilder directly: no generator, no
// decoder, nothing that would refuse an out-of-range or NaN coordinate.
func kernelGraph(t testing.TB, space torus.Space, coords [][]float64, weights []float64) *graph.Graph {
	t.Helper()
	n := len(coords)
	pos := torus.NewPositions(space, n)
	for v, x := range coords {
		pos.Set(v, x)
	}
	b, err := graph.NewBuilder(n, pos, weights, float64(n)+0.5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Finish()
}

// checkScan asserts the two equalities the fast path rests on, for every
// target of g (or of the overlay o over it): scorer.score is NewStandard's
// Score bit for bit on every vertex, and scorer.best — whose clean loop
// carries a hand-inlined copy of score — picks BestNeighbor's vertex with
// that vertex's score on every adjacency list. wantUnit is whether the
// unit-coordinate kernel must be the one answering.
func checkScan(t testing.TB, g *graph.Graph, o *graph.Overlay, wantUnit bool) {
	t.Helper()
	var ref GeoGraph = g
	if o != nil {
		ref = o
	}
	for tgt := 0; tgt < ref.N(); tgt++ {
		obj := NewStandard(ref, tgt)
		sco := newScorer(g, o, tgt)
		if sco.unit != wantUnit {
			t.Fatalf("scorer.unit = %v, want %v", sco.unit, wantUnit)
		}
		for u := 0; u < ref.N(); u++ {
			if got, want := sco.score(u), obj.Score(u); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("target %d: score(%d) = %v (%016x), NewStandard scores %v (%016x)",
					tgt, u, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for v := 0; v < ref.N(); v++ {
			var bs, add, del []int32
			if v < g.N() {
				bs = g.Neighbors(v)
			}
			if o != nil {
				add, del = o.Delta(v)
			}
			got, gotScore := sco.best(bs, add, del)
			want := BestNeighbor(ref, obj, v)
			if got != want || (want >= 0 && math.Float64bits(gotScore) != math.Float64bits(obj.Score(want))) {
				t.Fatalf("target %d: best over adj(%d) = %d scoring %v, BestNeighbor picks %d",
					tgt, v, got, gotScore, want)
			}
		}
	}
}

// hardCoords are the coordinate values the kernel could plausibly get wrong:
// the ends of [0, 1), pairs exactly 0.5 apart (where the d > 0.5 wrap
// flips), the floats around 0.5, gaps of 1e-200 and a
// denormal (whose powers underflow to a zero distance), and plain values.
var hardCoords = []float64{
	0, 0.5, 0.25, 0.75, 1 - 0x1p-53, 0x1p-53,
	math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
	1e-200, 2e-200, 0.5 + 1e-200, 5e-324,
	0.1, 0.6, 0.3, 0.3 + 0x1p-54, 0.987654321,
}

// TestScanKernelBitIdentical is the exactness gate of the scan kernel: over
// dim 1, 2, 3 and 5, both norms, both geometries, weighted and unweighted,
// on coordinates chosen to sit on every edge of the arithmetic (hardCoords,
// duplicated positions included) and on seeded random mixes of them, the
// fast path's score and argmax equal the interface path's bit for bit —
// vertices joined through an overlay included; and graphs no generator
// would emit — a coordinate of 1.0, -0.25 or NaN — are refused the
// certificate, take the generic loop, and match it too.
func TestScanKernelBitIdentical(t *testing.T) {
	const n = 14
	for _, dim := range []int{1, 2, 3, 5} {
		for _, norm := range []torus.Norm{torus.MaxNorm, torus.L2Norm} {
			for _, geo := range []torus.Geometry{torus.Torus, torus.Cube} {
				space, err := torus.NewSpaceFull(dim, norm, geo)
				if err != nil {
					t.Fatal(err)
				}
				kernel := norm == torus.MaxNorm && geo == torus.Torus
				t.Run(fmt.Sprintf("dim%d/norm%d/geo%d", dim, norm, geo), func(t *testing.T) {
					// Table: vertex v walks hardCoords with a stride per axis;
					// vertex 1 duplicates vertex 0's position.
					coords := make([][]float64, n)
					for v := range coords {
						coords[v] = make([]float64, dim)
						for k := range coords[v] {
							coords[v][k] = hardCoords[(v*(k+2)+3*k)%len(hardCoords)]
						}
					}
					copy(coords[1], coords[0])
					weights := make([]float64, n)
					for v := range weights {
						weights[v] = 0.75 * (1 + float64(v%5)/3)
					}
					checkScan(t, kernelGraph(t, space, coords, weights), nil, kernel)
					checkScan(t, kernelGraph(t, space, coords, nil), nil, kernel)

					// Property: seeded mixes of hard and uniform coordinates.
					rng := xrand.New(uint64(100*dim + 10*int(norm) + int(geo)))
					for round := 0; round < 6; round++ {
						for v := range coords {
							for k := range coords[v] {
								if rng.Bernoulli(0.5) {
									coords[v][k] = hardCoords[rng.IntN(len(hardCoords))]
								} else {
									coords[v][k] = rng.Float64()
								}
							}
							weights[v] = 0.75 + 10*rng.Float64()
						}
						g := kernelGraph(t, space, coords, weights)
						checkScan(t, g, nil, kernel)

						// Joined vertices are wrapped and checked on the way in,
						// so the base's certificate covers them.
						e := graph.NewOverlay(g).Edit()
						for _, c := range []float64{1 - 0x1p-53, -0.25, 7, 0.5} {
							x := make([]float64, dim)
							for k := range x {
								x[k] = c + float64(k)/8
							}
							nv, err := e.AddVertex(x, 0.75+rng.Float64())
							if err != nil {
								t.Fatal(err)
							}
							for _, u := range []int{rng.IntN(n), nv - 1} {
								if !e.HasEdge(nv, u) {
									if err := e.AddEdge(nv, u); err != nil {
										t.Fatal(err)
									}
								}
							}
						}
						if err := e.RemoveEdge(0, 1+rng.IntN(n-1)); err != nil {
							t.Fatal(err)
						}
						checkScan(t, g, e.Finish(), kernel)
					}

					// Uncertified: one coordinate off the unit interval.
					for _, bad := range []float64{1, -0.25, math.NaN()} {
						coords[n/2][dim-1] = bad
						g := kernelGraph(t, space, coords, weights)
						if g.UnitCoords() {
							t.Fatalf("a graph with coordinate %v was certified", bad)
						}
						checkScan(t, g, nil, false)
					}
				})
			}
		}
	}
}

// FuzzScanKernel drives the same two equalities from raw bytes: a header
// picks the dimension and whether weights exist, then every 9 bytes are one
// value — a mode byte and the 8 bytes of a float, taken verbatim (any bit
// pattern: NaN, infinities, negatives, which must lose the certificate) or
// folded into [0, 1) (which must keep it). Weights are folded into finite
// positive numbers, as both decoders and every generator guarantee.
func FuzzScanKernel(f *testing.F) {
	seed := func(dim, weighted byte, vals ...float64) {
		b := []byte{dim, weighted}
		for i, v := range vals {
			b = append(b, byte(i%2))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(1, 1, hardCoords...)
	seed(0, 0, 0, 0.5, 0.5, 1-0x1p-53, 1e-200)
	seed(2, 1, 0.1, 0.6, 0.3, 1, -0.25, math.NaN(), math.Inf(1), 0.9, 0.2, 0.7, 0.4, 0.5)
	seed(3, 1, 0.25, 0.75, 0.5, 0, 0.125, 0.625, 2e-200, 0.3, 0.3, 0.3, 0.3, 0.3)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim, weighted := 1+int(data[0])%4, data[1]%2 == 1
		var vals []float64
		for rest := data[2:]; len(rest) >= 9 && len(vals) < 40; rest = rest[9:] {
			bits := binary.LittleEndian.Uint64(rest[1:])
			v := math.Float64frombits(bits)
			if rest[0]%2 == 1 {
				v = float64(bits>>11) * 0x1p-53
			}
			vals = append(vals, v)
		}
		per := dim
		if weighted {
			per++
		}
		n := len(vals) / per
		if n < 2 {
			return
		}
		coords := make([][]float64, n)
		var weights []float64
		certified := true
		for v := range coords {
			coords[v] = vals[v*per : v*per+dim]
			for _, c := range coords[v] {
				certified = certified && c >= 0 && c < 1
			}
			if weighted {
				w := math.Abs(vals[v*per+dim])
				if !(w > 0 && w <= math.MaxFloat64) {
					w = 1
				}
				weights = append(weights, w)
			}
		}
		g := kernelGraph(t, torus.MustSpace(dim), coords, weights)
		if g.UnitCoords() != certified {
			t.Fatalf("UnitCoords = %v on coordinates %v", g.UnitCoords(), coords)
		}
		checkScan(t, g, nil, certified)
	})
}

// BenchmarkBestScan A/Bs the scan kernel inside one process: one argmax over
// the max-degree vertex of the n = 20 000 seed-5 GIRG (the ledger's big
// fixture, where that one scan is the episode) toward a target it is not
// adjacent to, so every neighbor is scored and nothing could end the scan
// early. clean is the bare CSR loop, dirty the two-pointer merge after 2 %
// joins + 2 % leaves (the hub loses its departed neighbors), generic the
// same list with the certificate withheld, i.e. Space.DistPow.
func BenchmarkBestScan(b *testing.B) {
	g := girgForRouting(b, 20000, 5)
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	tgt := 0
	for g.HasEdge(hub, tgt) || tgt == hub {
		tgt++
	}
	o := churnOverlay(b, g, g.N()/50, 77)
	if o.Tombstoned(hub) || o.Tombstoned(tgt) {
		b.Fatal("the churn removed the hub or the target")
	}
	add, del := o.Delta(hub)
	if len(add)+len(del) == 0 {
		b.Fatal("the hub is clean on the churned overlay")
	}
	bs := g.Neighbors(hub)

	for _, c := range []struct {
		name     string
		o        *graph.Overlay
		add, del []int32
		unit     bool
	}{
		{"clean", nil, nil, nil, true},
		{"dirty", o, add, del, true},
		{"generic", nil, nil, nil, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			sco := newScorer(g, c.o, tgt)
			if !sco.unit2 {
				b.Fatal("the GIRG fixture is not certified")
			}
			sco.unit, sco.unit2 = c.unit, c.unit
			got := -1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _ = sco.best(bs, c.add, c.del)
			}
			b.StopTimer()
			var ref GeoGraph = g
			if c.o != nil {
				ref = c.o
			}
			if want := BestNeighbor(ref, NewStandard(ref, tgt), hub); got != want {
				b.Fatalf("scan picked %d, the interface path %d", got, want)
			}
			scored := len(bs) + len(c.add) - len(c.del)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(scored), "ns/neighbor")
		})
	}
}
