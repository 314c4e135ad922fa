package torus

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// The bodies below are the cell helpers as they stood before the sampler's
// bookkeeping was rewritten (PR 21): bit loops for the dilations, a recursive
// closure over per-axis offset lists for the enumerations, CellMinDist on
// re-decoded codes for the adjacency tests. They stay as the references the
// O(1) versions are compared against — elements and order, because the GIRG
// sampler's random stream follows the enumeration order.

func spreadRef(v uint64, dim, level int) uint64 {
	if dim == 1 {
		return v & ((1 << uint(level)) - 1)
	}
	var out uint64
	for k := 0; k < level; k++ {
		out |= ((v >> uint(k)) & 1) << uint(k*dim)
	}
	return out
}

func compactRef(v uint64, dim, level int) uint64 {
	if dim == 1 {
		return v & ((1 << uint(level)) - 1)
	}
	var out uint64
	for k := 0; k < level; k++ {
		out |= ((v >> uint(k*dim)) & 1) << uint(k)
	}
	return out
}

// axisColumnsRef lists the columns at offsets -reach..reach of c, in offset
// order, deduplicated, out-of-range ones dropped.
func axisColumnsRef(s Space, c uint32, reach int, side uint32) []uint32 {
	var vals []uint32
	for off := -reach; off <= reach; off++ {
		v, ok := s.OffsetCoord(c, off, side)
		if !ok || slices.Contains(vals, v) {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}

func neighborCellsRef(s Space, cell uint64, level int, dst []uint64) []uint64 {
	if level == 0 {
		return append(dst, 0)
	}
	side := uint32(1) << uint(level)
	var coords [MaxDim]uint32
	s.DecodeCoords(cell, level, coords[:s.dim])
	var offs [MaxDim][]uint32
	for i := 0; i < s.dim; i++ {
		offs[i] = axisColumnsRef(s, coords[i], 1, side)
	}
	var cur [MaxDim]uint32
	var rec func(axis int)
	rec = func(axis int) {
		if axis == s.dim {
			dst = append(dst, s.EncodeCoords(cur[:s.dim], level))
			return
		}
		for _, v := range offs[axis] {
			cur[axis] = v
			rec(axis + 1)
		}
	}
	rec(0)
	return dst
}

// separatedCellsRef is the sampler's former typeIIPartners.
func separatedCellsRef(s Space, cellA uint64, level int, dst []uint64) []uint64 {
	side := uint32(1) << uint(level)
	var coords [MaxDim]uint32
	s.DecodeCoords(cellA, level, coords[:s.dim])
	parentA := s.ParentCell(cellA)
	var cand [MaxDim][]uint32
	for ax := 0; ax < s.dim; ax++ {
		cand[ax] = axisColumnsRef(s, coords[ax], 3, side)
	}
	var cur [MaxDim]uint32
	var rec func(ax int)
	rec = func(ax int) {
		if ax == s.dim {
			cellB := s.EncodeCoords(cur[:s.dim], level)
			if s.CellMinDist(cellA, cellB, level) == 0 {
				return // adjacent or identical: type I territory
			}
			if s.CellMinDist(parentA, s.ParentCell(cellB), level-1) != 0 {
				return // parents not adjacent: handled at a shallower level
			}
			dst = append(dst, cellB)
			return
		}
		for _, v := range cand[ax] {
			cur[ax] = v
			rec(ax + 1)
		}
	}
	rec(0)
	return dst
}

func TestDilationMatchesBitLoop(t *testing.T) {
	r := xrand.New(23)
	for dim := 1; dim <= 5; dim++ {
		for level := 0; level <= 62/dim; level++ {
			inputs := []uint64{0, 1, 1<<uint(level) - 1, 1 << uint(level), ^uint64(0)}
			for k := 0; k < 200; k++ {
				inputs = append(inputs, r.Uint64(), r.Uint64()>>uint(r.IntN(64)))
			}
			for _, v := range inputs {
				if got, want := spread(v, dim, level), spreadRef(v, dim, level); got != want {
					t.Fatalf("spread(%#x, dim %d, level %d) = %#x, want %#x", v, dim, level, got, want)
				}
				if got, want := compact(v, dim, level), compactRef(v, dim, level); got != want {
					t.Fatalf("compact(%#x, dim %d, level %d) = %#x, want %#x", v, dim, level, got, want)
				}
			}
		}
	}
}

// TestCellEnumerationMatchesReference walks every cell of levels 0-5 in
// dimensions 1-3 on both geometries; sides 1, 2 and 4 are where the +-3
// offsets wrap onto each other and the deduplication decides the order.
func TestCellEnumerationMatchesReference(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		for _, geo := range []Geometry{Torus, Cube} {
			s, err := NewSpaceFull(dim, MaxNorm, geo)
			if err != nil {
				t.Fatal(err)
			}
			var got, want []uint64
			var gaps []uint32
			for level := 0; level <= 5; level++ {
				side := float64(uint64(1) << uint(level))
				for cell := uint64(0); cell < s.CellsAtLevel(level); cell++ {
					got = s.NeighborCells(cell, level, got[:0])
					want = neighborCellsRef(s, cell, level, want[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("dim %d geo %d level %d cell %d: NeighborCells %v, want %v", dim, geo, level, cell, got, want)
					}
					got, gaps = s.SeparatedCells(cell, level, got[:0], gaps[:0])
					want = separatedCellsRef(s, cell, level, want[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("dim %d geo %d level %d cell %d: SeparatedCells %v, want %v", dim, geo, level, cell, got, want)
					}
					for k, b := range got {
						if d := s.CellMinDist(cell, b, level); float64(gaps[k])/side != d {
							t.Fatalf("dim %d geo %d level %d cells %d, %d: gap %d, CellMinDist %v", dim, geo, level, cell, b, gaps[k], d)
						}
					}
				}
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	r := xrand.New(1)
	for _, dim := range []int{2, 3, 4} {
		s := MustSpace(dim)
		pts := make([][]float64, 1024)
		for i := range pts {
			pts[i] = randPoint(r, dim)
		}
		level := min(12, s.MaxLevel())
		b.Run(map[int]string{2: "dim2", 3: "dim3", 4: "dim4-loop"}[dim], func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += s.Encode(pts[i&1023], level)
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
