package girg_test

import (
	"math"
	"testing"

	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/hrg"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// goldenRow pins one generation of the fast sampler: the graph's
// fingerprint, its edge count, and the RNG's next output after the sampler
// returns — the last one fails when a rewrite makes one draw more or fewer
// even if the edges happen to agree.
type goldenRow struct {
	name string
	gen  func(rng *xrand.RNG) (*graph.Graph, error)
	seed uint64
	fp   uint64
	m    int
	next uint64
}

// girgRow samples vertices and edges from one stream, as girg.Generate does,
// but keeps the stream to read what comes after.
func girgRow(p girg.Params, planted []girg.Plant) func(*xrand.RNG) (*graph.Graph, error) {
	return func(rng *xrand.RNG) (*graph.Graph, error) {
		vs, err := girg.SampleVertices(p, rng, planted)
		if err != nil {
			return nil, err
		}
		return girg.GenerateEdges(p, vs, rng, girg.SamplerFast)
	}
}

func hrgRow(p hrg.Params) func(*xrand.RNG) (*graph.Graph, error) {
	return func(rng *xrand.RNG) (*graph.Graph, error) {
		return hrg.GenerateFastWithCoords(p, hrg.SampleCoords(p, rng), rng)
	}
}

// with returns the default parameter set at intensity n, fixed size, edited
// by f.
func with(n float64, f func(*girg.Params)) girg.Params {
	p := girg.DefaultParams(n)
	p.FixedN = true
	if f != nil {
		f(&p)
	}
	return p
}

// goldenRows was recorded with the sampler of commit bdc5481 (PR 21), before
// the cell bookkeeping and the arithmetic of the fast sampler were rewritten;
// the rewrite consumes the same stream in the same order, so no row moved.
// A change that means to alter the sampled graphs re-records the table and
// says so.
var goldenRows = []goldenRow{
	{name: "d2-dense", gen: girgRow(with(3000, nil), nil), seed: 1, fp: 0xb7f53c33f6de6bb4, m: 83147, next: 0x656ff77803f0b1f7},
	{name: "d2-poisson", gen: girgRow(girg.DefaultParams(3000), nil), seed: 2, fp: 0xdae6070f4165ea41, m: 87578, next: 0xa322a8435eaadaf3},
	{name: "d2-sparse", gen: girgRow(with(5000, func(p *girg.Params) { p.Lambda = 0.005 }), nil), seed: 3, fp: 0xd56e45bcc6810b46, m: 10490, next: 0x01e818c31b2b1b01},
	{name: "d2-lambda8", gen: girgRow(with(2000, func(p *girg.Params) { p.Lambda = 8 }), nil), seed: 4, fp: 0x54795b7185473667, m: 148779, next: 0x2232d2513bc9e33c},
	{name: "d1-torus", gen: girgRow(with(2000, func(p *girg.Params) { p.Dim = 1 }), nil), seed: 5, fp: 0x93ef8eed9a38f831, m: 28256, next: 0x10a7a61d8a1ad149},
	{name: "d1-cube-threshold", gen: girgRow(with(2000, func(p *girg.Params) {
		p.Dim, p.Geometry, p.Alpha = 1, torus.Cube, math.Inf(1)
	}), nil), seed: 6, fp: 0xe03abef3bcd4357a, m: 15594, next: 0x95d89fe4833df6a2},
	{name: "d3-torus", gen: girgRow(with(3000, func(p *girg.Params) { p.Dim = 3 }), nil), seed: 7, fp: 0xf1cda4185e4d94cd, m: 156752, next: 0xbcfcc4e2532eda2f},
	{name: "d3-l2-cube-a1.5", gen: girgRow(with(2000, func(p *girg.Params) {
		p.Dim, p.Norm, p.Geometry, p.Alpha = 3, torus.L2Norm, torus.Cube, 1.5
	}), nil), seed: 8, fp: 0x1872efd827a0bb16, m: 50409, next: 0xe1b93b8368e6cef9},
	{name: "d4-torus", gen: girgRow(with(1500, func(p *girg.Params) { p.Dim = 4 }), nil), seed: 9, fp: 0x537da10335065e38, m: 133898, next: 0x1876989536134f1e},
	{name: "d2-l2", gen: girgRow(with(3000, func(p *girg.Params) { p.Norm = torus.L2Norm }), nil), seed: 10, fp: 0x1c939ea187bcb5c8, m: 77836, next: 0xd7c7ae64967697ea},
	{name: "d2-cube", gen: girgRow(with(3000, func(p *girg.Params) { p.Geometry = torus.Cube }), nil), seed: 11, fp: 0x65fbafbe9b783e0d, m: 78232, next: 0x5ac00f6990cd4ede},
	{name: "d2-cube-sparse", gen: girgRow(with(4000, func(p *girg.Params) {
		p.Geometry, p.Lambda = torus.Cube, 0.01
	}), nil), seed: 12, fp: 0x38d2b0bdc6797040, m: 12281, next: 0x0fb6c93dd399a116},
	{name: "d2-a1.5", gen: girgRow(with(3000, func(p *girg.Params) { p.Alpha = 1.5 }), nil), seed: 13, fp: 0xdf6f64312b420e6a, m: 121912, next: 0x4e0b2b85664a0de0},
	{name: "d2-a2.5", gen: girgRow(with(3000, func(p *girg.Params) { p.Alpha = 2.5 }), nil), seed: 14, fp: 0xe2e4cd4ed2bf4c6b, m: 85318, next: 0xbd244a3e148f0e74},
	{name: "d2-threshold", gen: girgRow(with(3000, func(p *girg.Params) { p.Alpha = math.Inf(1) }), nil), seed: 15, fp: 0xb223c5e21360e486, m: 45541, next: 0x38b8574471e1b00a},
	{name: "d2-beta2.1", gen: girgRow(with(3000, func(p *girg.Params) { p.Beta = 2.1 }), nil), seed: 16, fp: 0xc480a1fc2d03a419, m: 226946, next: 0x32dc275dbfbbf50f},
	{name: "d2-wmax", gen: girgRow(with(3000, func(p *girg.Params) { p.WMax = 20 }), nil), seed: 17, fp: 0x160688a184d7c254, m: 65428, next: 0xdb1d3895a7f9667e},
	{name: "d2-wmin3-sparse", gen: girgRow(with(4000, func(p *girg.Params) {
		p.WMin, p.Lambda = 3, 0.02
	}), nil), seed: 18, fp: 0x3b8feda47faee284, m: 49011, next: 0x9174c6a5a7a0a876},
	{name: "d2-planted", gen: girgRow(with(3000, nil), []girg.Plant{
		{Pos: []float64{-0.25, 1.75}, W: 400}, // wraps to (0.75, 0.75)
		{Pos: nil, W: 1},
	}), seed: 19, fp: 0x3d5c936311e4aa07, m: 95521, next: 0x99a905a1c5f37170},
	{name: "d3-planted-cube", gen: girgRow(with(2000, func(p *girg.Params) {
		p.Dim, p.Geometry = 3, torus.Cube
	}), []girg.Plant{
		{Pos: []float64{0, 0, 0}, W: 50},
		{Pos: []float64{0.999999, 0.5, 0}, W: 2},
	}), seed: 20, fp: 0x7a63f402efc1082e, m: 68263, next: 0xd7faa8b35cffd088},
	{name: "hrg-threshold", gen: hrgRow(hrg.DefaultParams(3000)), seed: 21, fp: 0x423f13106037f39a, m: 5548, next: 0xddb873ea3c811db0},
	{name: "hrg-temperature", gen: hrgRow(hrg.Params{N: 3000, AlphaH: 0.75, CH: 1, TH: 0.5}), seed: 22, fp: 0x2eb72d8a52aa8692, m: 7014, next: 0xfb6cf08b0f4e4b81},
}

// TestFastSamplerGolden is the stream-identity check of the fast sampler:
// same seed, same graph, same number of draws.
func TestFastSamplerGolden(t *testing.T) {
	for _, row := range goldenRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			rng := xrand.New(row.seed)
			g, err := row.gen(rng)
			if err != nil {
				t.Fatal(err)
			}
			fp, m, next := g.Fingerprint(), g.M(), rng.Uint64()
			if fp != row.fp || m != row.m || next != row.next {
				t.Errorf("got fp: %#016x, m: %d, next: %#016x; want fp: %#016x, m: %d, next: %#016x",
					fp, m, next, row.fp, row.m, row.next)
			}
		})
	}
}

// BenchmarkGenerate times whole generations (vertices, edges, Finish) and
// reports ns/edge. Each rung asserts the fingerprint its parameters sampled
// before the sampler was rewritten, so a fast wrong sampler posts no number:
// dense20k is the benchmark ledger's fixture, sparse200k the regime where the
// cell bookkeeping, not the coins, is the bill, hrg20k a custom kernel.
func BenchmarkGenerate(b *testing.B) {
	girgGen := func(n float64, lambda float64) func() (*graph.Graph, error) {
		p := with(n, func(p *girg.Params) { p.Lambda = lambda })
		return func() (*graph.Graph, error) { return girg.Generate(p, 5, girg.Options{}) }
	}
	for _, rung := range []struct {
		name string
		gen  func() (*graph.Graph, error)
		fp   uint64
		m    int
	}{
		{"dense20k", girgGen(20000, 1), 0x23c930abf0935648, 702196},
		{"sparse200k", girgGen(200000, 0.005), 0x55456db0651e19b9, 498214},
		{"hrg20k", func() (*graph.Graph, error) {
			return hrg.GenerateFast(hrg.Params{N: 20000, AlphaH: 0.75, CH: 1, TH: 0.5}, 5)
		}, 0x04642647192cf9da, 51390},
	} {
		b.Run(rung.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := rung.gen()
				if err != nil {
					b.Fatal(err)
				}
				if g.Fingerprint() != rung.fp || g.M() != rung.m {
					b.Fatalf("sampled %#016x with %d edges, want %#016x with %d", g.Fingerprint(), g.M(), rung.fp, rung.m)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rung.m), "ns/edge")
		})
	}
}

// BenchmarkTypeIIPartners times the sampler's partner enumeration (the
// former typeIIPartners, now torus.SeparatedCells) over every cell of one
// level.
func BenchmarkTypeIIPartners(b *testing.B) {
	for _, dim := range []int{2, 3} {
		space := torus.MustSpace(dim)
		level := 12 / dim
		b.Run(map[int]string{2: "dim2", 3: "dim3"}[dim], func(b *testing.B) {
			var cells []uint64
			var gaps []uint32
			for i := 0; i < b.N; i++ {
				cell := uint64(i) & (space.CellsAtLevel(level) - 1)
				cells, gaps = space.SeparatedCells(cell, level, cells[:0], gaps[:0])
			}
			if len(cells) != len(gaps) || len(cells) == 0 {
				b.Fatalf("%d cells, %d gaps", len(cells), len(gaps))
			}
		})
	}
}
