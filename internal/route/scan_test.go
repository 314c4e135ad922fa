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
// holds every other vertex — the target at every rank — and one scan per
// vertex exercises the whole kernel. It goes through graph.NewBuilder
// directly: no generator, no decoder, nothing that would refuse an
// out-of-range or NaN coordinate.
func kernelGraph(t testing.TB, space torus.Space, coords [][]float64, weights []float64) *graph.Graph {
	t.Helper()
	return kernelGraphEdges(t, space, coords, weights, func(u, v int) bool { return true })
}

// kernelGraphEdges is kernelGraph keeping only the pairs u < v that keep
// admits, which leaves room for an overlay to add base-to-base edges.
func kernelGraphEdges(t testing.TB, space torus.Space, coords [][]float64, weights []float64, keep func(u, v int) bool) *graph.Graph {
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
			if keep(u, v) {
				b.AddEdge(u, v)
			}
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
			checkBest(t, g, o, tgt, v)
		}
	}
}

// checkBest asserts that scorer.best over v's live adjacency — read the way
// greedyWalk reads it — picks BestNeighbor's vertex toward tgt, with that
// vertex's score, and returns the pick.
func checkBest(t testing.TB, g *graph.Graph, o *graph.Overlay, tgt, v int) int {
	t.Helper()
	var ref GeoGraph = g
	var bs, add, del []int32
	if v < g.N() {
		bs = g.Neighbors(v)
	}
	if o != nil {
		ref = o
		if o.Tombstoned(v) {
			bs = nil
		} else {
			add, del = o.Delta(v)
		}
	}
	obj := NewStandard(ref, tgt)
	sco := newScorer(g, o, tgt)
	got, gotScore := sco.best(bs, add, del)
	want := BestNeighbor(ref, obj, v)
	if got != want || (want >= 0 && math.Float64bits(gotScore) != math.Float64bits(obj.Score(want))) {
		t.Fatalf("target %d: best over adj(%d) = %d scoring %v, BestNeighbor picks %d",
			tgt, v, got, gotScore, want)
	}
	return got
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

// TestBestEarlyExit pins the scan's early termination against the interface
// path (BestNeighbor under NewStandard, which scores every neighbor) on the
// lists where stopping at the target could go wrong: the target at the first,
// a middle and the last rank; present only in add; listed in del, so not a
// live neighbor at all; another vertex sitting exactly on the target's
// position at a lower id (it must win the +Inf tie) or a higher one (it must
// lose), inside bs and as an overlay add folded after the scan has stopped;
// a target that itself joined through the overlay; and a tombstoned current
// vertex, whose stale base list still names the target. Each case runs on the
// in-place kernel (dim 2), the generic unit kernel (dim 3) and Space.DistPow
// (L2), and the whole walk from the scanned vertex equals Greedy's.
func TestBestEarlyExit(t *testing.T) {
	const n, cur = 12, 4
	type edit struct {
		op   byte // '+' add edge, '-' remove edge, 'x' remove vertex u, 'j' join a vertex at u's position to cur
		u, v int
	}
	for _, c := range []struct {
		name     string
		dup      [2]int // coords[dup[1]] = coords[dup[0]] when they differ
		edits    []edit
		tgt, win int
	}{
		{name: "first", tgt: 0, win: 0},
		{name: "middle", tgt: 6, win: 6},
		{name: "last", tgt: 11, win: 11},
		{name: "dup-lower-bs", dup: [2]int{7, 3}, tgt: 7, win: 3},
		{name: "dup-higher-bs", dup: [2]int{7, 10}, tgt: 7, win: 7},
		{name: "add-only", edits: []edit{{'+', cur, 2}, {'+', cur, 9}}, tgt: 9, win: 9},
		{name: "add-after-del", edits: []edit{{'-', cur, 1}, {'-', cur, 10}, {'+', cur, 9}}, tgt: 9, win: 9},
		{name: "del", dup: [2]int{6, 10}, edits: []edit{{'-', cur, 6}}, tgt: 6, win: 10},
		{name: "del-then-hit", edits: []edit{{'-', cur, 3}, {'-', cur, 8}}, tgt: 7, win: 7},
		{name: "dup-lower-add", dup: [2]int{7, 2}, edits: []edit{{'+', cur, 2}}, tgt: 7, win: 2},
		{name: "dup-higher-add", dup: [2]int{7, 9}, edits: []edit{{'+', cur, 9}}, tgt: 7, win: 7},
		{name: "joined-target-dup-bs", edits: []edit{{'j', 3, 0}}, tgt: n, win: 3},
		{name: "tombstoned", edits: []edit{{'x', cur, 0}}, tgt: 6, win: -1},
	} {
		for _, sp := range []struct {
			dim  int
			norm torus.Norm
		}{{2, torus.MaxNorm}, {3, torus.MaxNorm}, {2, torus.L2Norm}} {
			t.Run(fmt.Sprintf("%s/dim%d/norm%d", c.name, sp.dim, sp.norm), func(t *testing.T) {
				space, err := torus.NewSpaceFull(sp.dim, sp.norm, torus.Torus)
				if err != nil {
					t.Fatal(err)
				}
				coords := make([][]float64, n)
				weights := make([]float64, n)
				for v := range coords {
					coords[v] = make([]float64, sp.dim)
					for k := range coords[v] {
						_, coords[v][k] = math.Modf(float64(v+1)*0.0731 + float64(k)*0.219)
					}
					weights[v] = 0.75 * (1 + float64(v%5)/3)
				}
				if c.dup[0] != c.dup[1] {
					copy(coords[c.dup[1]], coords[c.dup[0]])
				}
				// cur is adjacent to everything but 2 and 9, which overlay
				// cases add back on either side of the target.
				g := kernelGraphEdges(t, space, coords, weights, func(u, v int) bool {
					return !(u == 2 && v == cur) && !(u == cur && v == 9)
				})
				var o *graph.Overlay
				var ref GeoGraph = g
				if c.edits != nil {
					e := graph.NewOverlay(g).Edit()
					for _, ed := range c.edits {
						switch ed.op {
						case '+':
							err = e.AddEdge(ed.u, ed.v)
						case '-':
							err = e.RemoveEdge(ed.u, ed.v)
						case 'x':
							err = e.RemoveVertex(ed.u)
						case 'j':
							var nv int
							if nv, err = e.AddVertex(coords[ed.u], 0.75); err == nil {
								err = e.AddEdge(nv, cur)
							}
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					o = e.Finish()
					ref = o
				}
				if got := checkBest(t, g, o, c.tgt, cur); got != c.win {
					t.Fatalf("best picked %d, the case is built for %d to win", got, c.win)
				}
				var out Result
				greedyWalk(g, o, c.tgt, cur, nil, Budget{}, &out)
				sameEpisode(t, "walk", Greedy(ref, NewStandard(ref, c.tgt), cur), out)
			})
		}
	}
}

// TestBestStopsAtTarget proves the scan stops, without a counter: every id
// listed after the target is out of range, so scoring one panics — as the
// same lists do when the target is not on them.
func TestBestStopsAtTarget(t *testing.T) {
	g := kernelGraph(t, torus.MustSpace(2), [][]float64{{0.1, 0.2}, {0.3, 0.9}, {0.5, 0.4}, {0.7, 0.6}, {0.9, 0.1}}, []float64{1, 2, 1.5, 1, 3})
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, unit2 := range []bool{true, false} {
		for _, c := range []struct{ bs, add, del []int32 }{
			{bs: []int32{3, 1000, 1001}},
			{bs: []int32{0, 1, 3, 1000}},
			{bs: []int32{0, 1, 3, 1000, 1001, 1002}, del: []int32{1, 1001}},
			{bs: []int32{0, 3, 1000, 1001}, add: []int32{2, 4}, del: []int32{1000}},
		} {
			hit, miss := newScorer(g, nil, 3), newScorer(g, nil, 2)
			hit.unit2, miss.unit2 = unit2, unit2
			if u, su := hit.best(c.bs, c.add, c.del); u != 3 || su != inf {
				t.Fatalf("unit2=%v %v: best = %d scoring %v, want the target", unit2, c, u, su)
			}
			if !panics(func() { miss.best(c.bs, c.add, c.del) }) {
				t.Fatalf("unit2=%v %v: scanning past the target's rank did not panic", unit2, c)
			}
		}
	}
}

// FuzzScanKernel drives the same two equalities from raw bytes: a header
// picks the dimension, whether weights exist, two vertices made to share one
// position, and the seed of an edit script; then every 9 bytes are one
// value — a mode byte and the 8 bytes of a float, taken verbatim (any bit
// pattern: NaN, infinities, negatives, which must lose the certificate) or
// folded into [0, 1) (which must keep it). Weights are folded into finite
// positive numbers, as both decoders and every generator guarantee. The
// points are scanned twice: as the complete graph, where every list is clean
// and holds the target at every rank, and as a graph with a quarter of the
// pairs left out under an overlay that toggles a quarter of all pairs and
// joins a vertex on an existing position — so the target and its duplicate
// land in bs, add or del at fuzzed ranks.
func FuzzScanKernel(f *testing.F) {
	seed := func(dim, weighted, dup, edits byte, vals ...float64) {
		b := []byte{dim, weighted, dup, edits}
		for i, v := range vals {
			b = append(b, byte(i%2))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(1, 1, 0x00, 1, hardCoords...)
	seed(0, 0, 0x31, 2, 0, 0.5, 0.5, 1-0x1p-53, 1e-200)
	seed(2, 1, 0x02, 3, 0.1, 0.6, 0.3, 1, -0.25, math.NaN(), math.Inf(1), 0.9, 0.2, 0.7, 0.4, 0.5)
	seed(3, 1, 0x20, 4, 0.25, 0.75, 0.5, 0, 0.125, 0.625, 2e-200, 0.3, 0.3, 0.3, 0.3, 0.3)
	seed(1, 0, 0x14, 5, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.15, 0.25, 0.35)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		dim, weighted := 1+int(data[0])%4, data[1]%2 == 1
		var vals []float64
		for rest := data[4:]; len(rest) >= 9 && len(vals) < 40; rest = rest[9:] {
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
		for v := range coords {
			coords[v] = vals[v*per : v*per+dim]
		}
		dupOf := int(data[2]&15) % n
		copy(coords[int(data[2]>>4)%n], coords[dupOf])
		var weights []float64
		certified := true
		for v := range coords {
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
		space := torus.MustSpace(dim)
		g := kernelGraph(t, space, coords, weights)
		if g.UnitCoords() != certified {
			t.Fatalf("UnitCoords = %v on coordinates %v", g.UnitCoords(), coords)
		}
		checkScan(t, g, nil, certified)

		rng := xrand.New(uint64(data[3]))
		left := make(map[[2]int]bool)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				left[[2]int{u, v}] = rng.IntN(4) == 0
			}
		}
		g = kernelGraphEdges(t, space, coords, weights, func(u, v int) bool { return !left[[2]int{u, v}] })
		e := graph.NewOverlay(g).Edit()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.IntN(4) != 0 {
					continue
				}
				toggle := e.RemoveEdge
				if left[[2]int{u, v}] {
					toggle = e.AddEdge
				}
				if err := toggle(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A non-finite position is refused; the edge edits stand alone then.
		if nv, err := e.AddVertex(coords[dupOf], 0.75+rng.Float64()); err == nil {
			for _, u := range []int{dupOf, rng.IntN(n)} {
				if !e.HasEdge(nv, u) {
					if err := e.AddEdge(nv, u); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		checkScan(t, g, e.Finish(), certified)
	})
}

// BenchmarkBestScan A/Bs the scan kernel inside one process: one argmax over
// the max-degree vertex of the n = 20 000 seed-5 GIRG (the ledger's big
// fixture, where that one scan is the episode). clean, dirty and generic aim
// at a target the hub is not adjacent to, so every neighbor is scored and
// nothing ends the scan early: clean is one run of the kernel, dirty the
// run-split scan after 2 % joins + 2 % leaves (the hub loses its departed
// neighbors: a few hundred runs, expect <= 1.3 x clean), generic the clean
// list with the certificate withheld, i.e. Space.DistPow. hit aims at the
// hub's median-rank neighbor, where the scan stops: expect 0.4-0.5 x clean.
func BenchmarkBestScan(b *testing.B) {
	g := girgForRouting(b, 20000, 5)
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	far := 0
	for g.HasEdge(hub, far) || far == hub {
		far++
	}
	o := churnOverlay(b, g, g.N()/50, 77)
	if o.Tombstoned(hub) || o.Tombstoned(far) {
		b.Fatal("the churn removed the hub or the target")
	}
	add, del := o.Delta(hub)
	if len(add)+len(del) == 0 {
		b.Fatal("the hub is clean on the churned overlay")
	}
	bs := g.Neighbors(hub)

	for _, c := range []struct {
		name     string
		tgt      int
		o        *graph.Overlay
		add, del []int32
		unit     bool
		scored   int
	}{
		{"clean", far, nil, nil, nil, true, len(bs)},
		{"hit", int(bs[len(bs)/2]), nil, nil, nil, true, len(bs)/2 + 1},
		{"dirty", far, o, add, del, true, len(bs) + len(add) - len(del)},
		{"generic", far, nil, nil, nil, false, len(bs)},
	} {
		b.Run(c.name, func(b *testing.B) {
			sco := newScorer(g, c.o, c.tgt)
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
			if want := BestNeighbor(ref, NewStandard(ref, c.tgt), hub); got != want {
				b.Fatalf("scan picked %d, the interface path %d", got, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.scored), "ns/neighbor")
		})
	}
}
