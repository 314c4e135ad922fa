package graph

import "math"

// Fingerprint digests the graph's entire content — sizes, model
// parameters, weights, positions, adjacency — into 64 bits (FNV-1a). Two
// graphs with equal fingerprints are, for all practical purposes, the same
// snapshot: the serving layer logs it when installing snapshots and the
// durability tests use it to assert that round-trips and resumed runs
// reproduce graphs bit-for-bit.
//
// The digest is O(n+m) but the graph is immutable, so it is computed once
// and memoized — readiness probes and cluster membership exchanges read it
// per request.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() { g.fp = g.fingerprint() })
	return g.fp
}

func (g *Graph) fingerprint() uint64 {
	src := digestSource{
		n: g.n, arcs: len(g.adj), intensity: g.intensity, wmin: g.wmin,
		weights: [2][]float64{g.weights},
		degree:  g.Degree,
		appendNeighbors: func(dst []int32, v int) []int32 {
			return append(dst, g.Neighbors(v)...)
		},
	}
	if g.pos != nil {
		src.dim = g.pos.Space().Dim()
		src.pos = [2][]float64{g.pos.Raw()}
	}
	return src.digest()
}

// digestSource is what the fingerprint layout reads a graph through, so an
// immutable Graph and a live Overlay are digested by the same code: the
// attribute stores come as the two runs an overlay keeps them in (the base's,
// then the added vertices'; a Graph has one), the adjacency as per-vertex
// degrees and merged lists.
type digestSource struct {
	n, arcs         int // vertices; adjacency entries (2 per edge)
	intensity, wmin float64
	dim             int // 0 without geometry
	pos, weights    [2][]float64
	degree          func(v int) int
	appendNeighbors func(dst []int32, v int) []int32
}

// digest is the fingerprint layout, written once: FNV-1a over the
// little-endian 64-bit words n, arcs, intensity, wmin, dim, every coordinate,
// every weight, the n+1 CSR offsets (running degree sums) and every adjacency
// entry in CSR order. The adjacency goes through one reused buffer, so
// digesting an overlay allocates its longest list and nothing else.
func (s *digestSource) digest() uint64 {
	h := fnvWord(fnvOffset64, uint64(s.n))
	h = fnvWord(h, uint64(s.arcs))
	h = fnvWord(h, math.Float64bits(s.intensity))
	h = fnvWord(h, math.Float64bits(s.wmin))
	h = fnvWord(h, uint64(s.dim))
	for _, part := range [...][]float64{s.pos[0], s.pos[1], s.weights[0], s.weights[1]} {
		for _, x := range part {
			h = fnvWord(h, math.Float64bits(x))
		}
	}
	off := uint32(0)
	h = fnvUint32(h, off)
	for v := 0; v < s.n; v++ {
		off += uint32(s.degree(v))
		h = fnvUint32(h, off)
	}
	var buf []int32
	for v := 0; v < s.n; v++ {
		buf = s.appendNeighbors(buf[:0], v)
		for _, u := range buf {
			h = fnvUint32(h, uint32(u))
		}
	}
	return h
}

// FNV-1a, 64 bits (hash/fnv's New64a, unrolled so a word is a register
// operation, not an interface call).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64Pow4 folds the four zero bytes on top of a 32-bit word: xor
	// with 0 is the identity, so they are four multiplications by the prime.
	fnvPrime64Pow4 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
)

// fnvWord folds the eight little-endian bytes of w into h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ w&0xff) * fnvPrime64
		w >>= 8
	}
	return h
}

// fnvUint32 folds w as a zero-extended 64-bit word, as the layout stores
// offsets and vertex ids.
func fnvUint32(h uint64, w uint32) uint64 {
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(w&0xff)) * fnvPrime64
		w >>= 8
	}
	return h * fnvPrime64Pow4
}
