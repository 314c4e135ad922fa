package graph

import (
	"fmt"

	"repro/internal/torus"
)

// Shard slicing: a cluster daemon owns the vertices whose deep Morton code
// starts with its shard prefix. The whole CSR snapshot stays loaded on every
// shard — greedy routing needs the neighbors and positions of border
// vertices anyway — and ownership is a bit mask over it, so slicing a shard
// out of a snapshot costs one pass over the positions and n bits of memory.

// MortonCodes returns the deep Morton code of every vertex (at
// torus.ShardLevel) and the code bit width. It errors on graphs without
// geometry — there is nothing to shard a non-geometric graph by.
func MortonCodes(g *Graph) (codes []uint64, bits int, err error) {
	if g.Positions() == nil {
		return nil, 0, fmt.Errorf("graph: cannot shard a graph without geometry")
	}
	codes, bits = torus.DeepCodes(g.Positions())
	return codes, bits, nil
}

// OwnedMask returns the ownership mask of a shard prefix over the given
// vertex codes: owned[v] reports that v's code starts with p. The prefix
// must be valid for the code width (torus.Prefix.Valid).
func OwnedMask(codes []uint64, bits int, p torus.Prefix) ([]bool, error) {
	if err := p.Valid(bits); err != nil {
		return nil, err
	}
	owned := make([]bool, len(codes))
	for v, c := range codes {
		owned[v] = p.Matches(c, bits)
	}
	return owned, nil
}

// Core returns the routing core of g: the longest prefix of its WeightOrder
// that forms a clique, shared with the memo (callers must not modify it).
// Every greedy path climbs into these hubs first (Figure 1's first phase),
// and above a weight of about √W two vertices are adjacent wherever they
// sit, so a cluster routes the core locally on every shard. A graph without
// weights has no hubs and an empty core.
func Core(g *Graph) []int32 {
	if g.weights == nil {
		return nil
	}
	order := g.WeightOrder()
	for k, v := range order {
		for _, u := range order[:k] {
			if !g.HasEdge(int(u), int(v)) {
				return order[:k:k]
			}
		}
	}
	return order
}
