package girg

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// FastSampler draws the GIRG edge set in expected near-linear time using the
// layered cell technique of Bringmann, Keusch and Lengler ("Sampling
// geometric inhomogeneous random graphs in linear time", ESA 2017):
//
//  1. Vertices are partitioned into weight layers L_i = [wmin 2^i, wmin 2^{i+1}).
//  2. Within each layer, vertices are sorted by the Morton code of their
//     position at a deep grid level, so the vertices of any cell at any
//     level form one contiguous slice.
//  3. For every pair of layers (i, j) a comparison level l(i,j) is chosen so
//     that one grid cell just covers the kernel's saturation radius for the
//     layers' maximum weights. Pairs in identical or adjacent cells at that
//     level ("type I") get exact per-pair coins. Pairs in cells that first
//     become non-adjacent at some level ("type II") are drawn by geometric
//     skipping with the kernel evaluated at the cells' minimum distance as
//     an upper bound, followed by exact rejection.
//
// Every unordered vertex pair is covered by exactly one (layer pair, cell
// pair) combination, so the sampled distribution is exactly the model's.
func FastSampler(p Params, vs *Vertices, rng *xrand.RNG, b *graph.Builder) {
	FastSamplerKernel(p, NewKernel(p), vs, rng, b)
}

// FastSamplerKernel runs the fast sampler with a custom edge kernel (e.g.
// the Fermi-Dirac kernel of embedded hyperbolic random graphs). The kernel
// must satisfy the EdgeKernel monotonicity contract.
func FastSamplerKernel(p Params, kernel EdgeKernel, vs *Vertices, rng *xrand.RNG, b *graph.Builder) {
	n := vs.N()
	if n < 2 {
		return
	}
	space := vs.Pos.Space()
	s := &fastState{
		params: p,
		kernel: kernel,
		vs:     vs,
		raw:    vs.Pos.Raw(),
		space:  space,
		rng:    rng,
		b:      b,
		dim:    space.Dim(),
	}
	// The model's own kernel is called directly, and on the default geometry
	// with every coordinate a number in [0, 1) pairs read their distance off
	// the raw store; any other kernel, space or store takes the general calls.
	s.girg, s.isGIRG = kernel.(Kernel)
	s.unit2 = s.dim == 2 && space.Norm() == torus.MaxNorm && space.Geometry() == torus.Torus
	for k := 0; s.unit2 && k < len(s.raw); k++ {
		s.unit2 = s.raw[k] >= 0 && s.raw[k] < 1 // false for NaN
	}
	s.deepLevel = deepLevel(space, n)
	s.buildLayers()
	for i := range s.layers {
		for j := i; j < len(s.layers); j++ {
			s.sampleLayerPair(i, j)
		}
	}
}

// deepLevel picks the deepest grid level used for Morton sorting: fine
// enough that comparison levels are never clamped in practice (about one
// vertex per cell), capped by code capacity.
func deepLevel(space torus.Space, n int) int {
	l := int(math.Ceil(math.Log2(float64(n))/float64(space.Dim()))) + 1
	if l < 1 {
		l = 1
	}
	if maxL := space.MaxLevel(); l > maxL {
		l = maxL
	}
	return l
}

// fastLayer holds one weight layer's vertices in Morton order.
type fastLayer struct {
	wUpper float64 // exclusive upper bound on weights in the layer
	ids    []int32
	codes  []uint64 // Morton codes at deepLevel, sorted; parallel to ids
	// starts[l][c] is the index of the first vertex in cell c of level l or
	// beyond, with one entry past the last cell. Kept for the levels from 0
	// up that have at most 4 cells per vertex of the layer: under 6 entries
	// per vertex over all levels, dropped with the sampler's state.
	starts [][]int32
}

type fastState struct {
	params    Params
	kernel    EdgeKernel
	girg      Kernel // kernel's concrete value when isGIRG
	isGIRG    bool
	vs        *Vertices
	raw       []float64 // vs.Pos.Raw()
	unit2     bool      // dim-2 max-norm torus, every coordinate in [0, 1)
	space     torus.Space
	rng       *xrand.RNG
	b         *graph.Builder
	dim       int
	deepLevel int
	layers    []fastLayer

	cells []uint64 // scratch: partner cells of the current cell
	gaps  []uint32 // scratch: their gaps to it (type II)
}

func (s *fastState) buildLayers() {
	wmin := s.params.WMin
	// Layer index of weight w: floor(log2(w/wmin)), clamped at 0 for
	// w == wmin boundary noise.
	layerOf := func(w float64) int {
		l := int(math.Log2(w / wmin))
		if l < 0 {
			l = 0
		}
		return l
	}
	maxLayer := 0
	for _, w := range s.vs.W {
		if l := layerOf(w); l > maxLayer {
			maxLayer = l
		}
	}
	s.layers = make([]fastLayer, maxLayer+1)
	for i := range s.layers {
		s.layers[i].wUpper = wmin * math.Pow(2, float64(i+1))
	}
	for v, w := range s.vs.W {
		l := layerOf(w)
		s.layers[l].ids = append(s.layers[l].ids, int32(v))
	}
	for i := range s.layers {
		lay := &s.layers[i]
		lay.codes = make([]uint64, len(lay.ids))
		for k, id := range lay.ids {
			lay.codes[k] = s.space.Encode(s.vs.Pos.At(int(id)), s.deepLevel)
		}
		// The order sort.Sort leaves equal codes in is part of the sampled
		// stream: another sort would draw another graph.
		sort.Sort(byCode{lay})
		for l := 0; l <= s.deepLevel && uint64(1)<<uint(s.dim*l) <= uint64(4*len(lay.ids)); l++ {
			lay.starts = append(lay.starts, cellStarts(lay.codes, 1<<uint(s.dim*l), uint(s.dim*(s.deepLevel-l))))
		}
	}
}

// byCode sorts a layer's ids and codes together by code.
type byCode struct{ l *fastLayer }

func (b byCode) Len() int           { return len(b.l.ids) }
func (b byCode) Less(i, j int) bool { return b.l.codes[i] < b.l.codes[j] }
func (b byCode) Swap(i, j int) {
	b.l.ids[i], b.l.ids[j] = b.l.ids[j], b.l.ids[i]
	b.l.codes[i], b.l.codes[j] = b.l.codes[j], b.l.codes[i]
}

// cellStarts builds one level's table of fastLayer.starts from the sorted
// deep codes: shift takes a deep code to its cell at that level.
func cellStarts(codes []uint64, cells int, shift uint) []int32 {
	t := make([]int32, cells+1)
	c := 0
	for k, code := range codes {
		for ; c <= int(code>>shift); c++ {
			t[c] = int32(k)
		}
	}
	for ; c <= cells; c++ {
		t[c] = int32(len(codes))
	}
	return t
}

// cellRange returns the [lo, hi) index range of the layer's vertices lying
// in cell `cell` at the given level. A level past the tables reads the range
// of the cell's ancestor at the deepest tabled level — a vertex or so — and
// bisects the codes inside it; dim*(deepLevel-level) is shift.
func (l *fastLayer) cellRange(cell uint64, level, dim int, shift uint) (lo, hi int) {
	up := uint(0)
	if tabled := len(l.starts) - 1; level > tabled {
		up, level = uint(dim*(level-tabled)), tabled
	}
	t := l.starts[level]
	lo, hi = int(t[cell>>up]), int(t[cell>>up+1])
	if up != 0 {
		lo = lowerBound(l.codes, lo, hi, cell<<shift)
		hi = lowerBound(l.codes, lo, hi, (cell+1)<<shift)
	}
	return lo, hi
}

// lowerBound returns the first index in [lo, hi) whose code is >= target,
// or hi.
func lowerBound(codes []uint64, lo, hi int, target uint64) int {
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); codes[m] < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// compLevel returns the comparison level for a saturation volume satPow
// (dist^d at which the kernel saturates): the deepest level whose cells
// still have volume >= satPow, clamped to [0, deepLevel].
func (s *fastState) compLevel(satPow float64) int {
	if satPow <= 0 {
		return s.deepLevel
	}
	if satPow >= 1 {
		return 0
	}
	l := int(-math.Log2(satPow)) / s.dim
	if l < 0 {
		l = 0
	}
	if l > s.deepLevel {
		l = s.deepLevel
	}
	return l
}

// sampleLayerPair draws the edges between layers i and j. The random stream
// is consumed in the order of its visits — type I at the comparison level,
// then type II level by level; within a level the cells of layer i in Morton
// order, their partner cells in the order torus enumerates them, the vertex
// pairs of a cell pair row by row — and every pinned fingerprint rests on
// that order.
func (s *fastState) sampleLayerPair(i, j int) {
	li, lj := &s.layers[i], &s.layers[j]
	if len(li.ids) == 0 || len(lj.ids) == 0 {
		return
	}
	satPow := s.kernel.SaturationDistPow(li.wUpper * lj.wUpper)
	lvl := s.compLevel(satPow)
	// Type I: identical or adjacent cells at the comparison level.
	s.sampleLevel(li, lj, lvl, false)
	// Type II: cell pairs that first become non-adjacent at level l2 <= lvl
	// (non-adjacent cells with adjacent parents).
	for l2 := 1; l2 <= lvl; l2++ {
		s.sampleLevel(li, lj, l2, true)
	}
}

// sampleLevel visits, for every cell A the vertices of li occupy at the
// given level, the cells B of lj around it: the adjacent ones with exact
// per-pair coins (type I), or the separated ones of torus.SeparatedCells by
// geometric skipping under the kernel's bound at the cells' minimum distance
// (type II). Within one layer each unordered cell pair is taken from its
// lower cell.
func (s *fastState) sampleLevel(li, lj *fastLayer, level int, separated bool) {
	shift := uint(s.dim * (s.deepLevel - level))
	side := float64(uint64(1) << uint(level))
	for aLo, aHi := 0, 0; aLo < len(li.codes); aLo = aHi {
		cellA := li.codes[aLo] >> shift
		_, aHi = li.cellRange(cellA, level, s.dim, shift)
		if separated {
			s.cells, s.gaps = s.space.SeparatedCells(cellA, level, s.cells[:0], s.gaps[:0])
		} else {
			s.cells = s.space.NeighborCells(cellA, level, s.cells[:0])
		}
		for k, cellB := range s.cells {
			if li == lj && cellB < cellA {
				continue
			}
			bLo, bHi := lj.cellRange(cellB, level, s.dim, shift)
			if bLo == bHi {
				continue
			}
			if !separated {
				s.exactPairs(li, aLo, aHi, lj, bLo, bHi, li == lj && cellA == cellB)
				continue
			}
			minDist := float64(s.gaps[k]) / side
			if pbar := s.prob(li.wUpper, lj.wUpper, torus.IPow(minDist, s.dim)); pbar > 0 {
				s.skipSampling(li, aLo, aHi, lj, bLo, bHi, pbar)
			}
		}
	}
}

// prob is the kernel's edge probability.
func (s *fastState) prob(wu, wv, distPow float64) float64 {
	if s.isGIRG {
		return s.girg.Prob(wu, wv, distPow)
	}
	return s.kernel.Prob(wu, wv, distPow)
}

// distPow is space.DistPow of the positions of u and v, through the unit
// kernel where the coordinates are certified.
func (s *fastState) distPow(u, v int) float64 {
	if !s.unit2 {
		return s.space.DistPow(s.raw[u*s.dim:(u+1)*s.dim], s.raw[v*s.dim:(v+1)*s.dim])
	}
	return torus.UnitDistPow2(s.raw[2*u], s.raw[2*u+1], s.raw[2*v], s.raw[2*v+1])
}

// exactPairs flips exact per-pair coins for all cross pairs between two
// slices (from different layers, or different cells of one layer), or, when
// same says the two are one slice, for all index pairs a < b within it.
func (s *fastState) exactPairs(li *fastLayer, aLo, aHi int, lj *fastLayer, bLo, bHi int, same bool) {
	for a := aLo; a < aHi; a++ {
		u := int(li.ids[a])
		wu := s.vs.W[u]
		if same {
			bLo = a + 1
		}
		for _, id := range lj.ids[bLo:bHi] {
			v := int(id)
			if s.rng.Bernoulli(s.prob(wu, s.vs.W[v], s.distPow(u, v))) {
				s.b.AddEdge(u, v)
			}
		}
	}
}

// skipSampling visits each cross pair independently with probability pbar
// via geometric skipping, then accepts with the exact kernel probability
// divided by pbar.
func (s *fastState) skipSampling(li *fastLayer, aLo, aHi int, lj *fastLayer, bLo, bHi int, pbar float64) {
	nb := bHi - bLo
	m := (aHi - aLo) * nb
	log1mp := math.Log1p(-pbar)
	for idx := s.rng.GeometricSkipLog(pbar, log1mp); idx < m; idx += 1 + s.rng.GeometricSkipLog(pbar, log1mp) {
		u := int(li.ids[aLo+idx/nb])
		v := int(lj.ids[bLo+idx%nb])
		p := s.prob(s.vs.W[u], s.vs.W[v], s.distPow(u, v))
		if p > 0 && s.rng.Bernoulli(p/pbar) {
			s.b.AddEdge(u, v)
		}
	}
}
