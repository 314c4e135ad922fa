package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// ReferenceFingerprint is the fingerprint as it was first written — hash/fnv
// over a finished Graph's own arrays — kept as the reference the streaming
// layout in fingerprint.go is tested and benchmarked against.
func ReferenceFingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.n))
	put(uint64(len(g.adj)))
	put(math.Float64bits(g.intensity))
	put(math.Float64bits(g.wmin))
	if g.pos != nil {
		put(uint64(g.pos.Space().Dim()))
		for _, c := range g.pos.Raw() {
			put(math.Float64bits(c))
		}
	} else {
		put(0)
	}
	for _, w := range g.weights {
		put(math.Float64bits(w))
	}
	for _, o := range g.offsets {
		put(uint64(uint32(o)))
	}
	for _, v := range g.adj {
		put(uint64(uint32(v)))
	}
	return h.Sum64()
}

// ClonedChunks counts the delta-table chunks of child that it does not share
// with parent: what the edit between them copied or created.
func ClonedChunks(parent, child *Overlay) int {
	cloned := 0
	for c, ch := range child.deltas.chunks {
		if ch != nil && (c >= len(parent.deltas.chunks) || parent.deltas.chunks[c] != ch) {
			cloned++
		}
	}
	return cloned
}
