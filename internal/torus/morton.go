package torus

// Morton (Z-order) codes identify grid cells of the hierarchical torus
// partition. At level l the torus splits into 2^(dim*l) congruent cubes of
// side 2^-l. A point's Morton code at level l interleaves the top l bits of
// each coordinate; crucially, the code of a cell at level l is a prefix of
// the codes of all its descendants, so after sorting points by deep-level
// Morton code, every cell at every level is one contiguous slice. This is
// the lookup structure behind the expected-linear-time GIRG sampler.

import "slices"

// CellCoord converts a coordinate in [0,1) to its integer cell index at the
// given level.
func CellCoord(x float64, level int) uint32 {
	c := uint32(x * float64(uint32(1)<<uint(level)))
	// Guard against x extremely close to 1 rounding up to 2^level.
	if c >= 1<<uint(level) {
		c = 1<<uint(level) - 1
	}
	return c
}

// Encode returns the Morton code of the cell containing pt at the given
// level. The result uses the low dim*level bits.
func (s Space) Encode(pt []float64, level int) uint64 {
	var code uint64
	for i := 0; i < s.dim; i++ {
		code |= spread(uint64(CellCoord(pt[i], level)), s.dim, level) << uint(i)
	}
	return code
}

// EncodeCoords returns the Morton code for explicit integer cell coordinates
// at the given level.
func (s Space) EncodeCoords(coords []uint32, level int) uint64 {
	var code uint64
	for i := 0; i < s.dim; i++ {
		code |= spread(uint64(coords[i]), s.dim, level) << uint(i)
	}
	return code
}

// DecodeCoords writes the integer cell coordinates of the Morton code at the
// given level into out (length dim).
func (s Space) DecodeCoords(code uint64, level int, out []uint32) {
	for i := 0; i < s.dim; i++ {
		out[i] = uint32(compact(code>>uint(i), s.dim, level))
	}
}

// spread distributes the low `level` bits of v so that consecutive bits land
// dim positions apart (bit k of v moves to bit k*dim of the result): a
// constant number of shift-and-mask steps for dim <= 3, where MaxLevel keeps
// v within the 32 (dim 2) and 21 (dim 3) bits the masks carry, a bit loop
// above.
func spread(v uint64, dim, level int) uint64 {
	v &= 1<<uint(level) - 1
	switch dim {
	case 1:
		return v
	case 2:
		v = (v | v<<16) & 0x0000ffff0000ffff
		v = (v | v<<8) & 0x00ff00ff00ff00ff
		v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
		v = (v | v<<2) & 0x3333333333333333
		return (v | v<<1) & 0x5555555555555555
	case 3:
		v = (v | v<<32) & 0x001f00000000ffff
		v = (v | v<<16) & 0x001f0000ff0000ff
		v = (v | v<<8) & 0x100f00f00f00f00f
		v = (v | v<<4) & 0x10c30c30c30c30c3
		return (v | v<<2) & 0x1249249249249249
	}
	var out uint64
	for k := 0; k < level; k++ {
		out |= ((v >> uint(k)) & 1) << uint(k*dim)
	}
	return out
}

// compact is the inverse of spread.
func compact(v uint64, dim, level int) uint64 {
	switch dim {
	case 1:
	case 2:
		v &= 0x5555555555555555
		v = (v | v>>1) & 0x3333333333333333
		v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
		v = (v | v>>4) & 0x00ff00ff00ff00ff
		v = (v | v>>8) & 0x0000ffff0000ffff
		v = (v | v>>16) & 0x00000000ffffffff
	case 3:
		v &= 0x1249249249249249
		v = (v | v>>2) & 0x10c30c30c30c30c3
		v = (v | v>>4) & 0x100f00f00f00f00f
		v = (v | v>>8) & 0x001f0000ff0000ff
		v = (v | v>>16) & 0x001f00000000ffff
		v = (v | v>>32) & 0x00000000001fffff
	default:
		var out uint64
		for k := 0; k < level; k++ {
			out |= ((v >> uint(k*dim)) & 1) << uint(k)
		}
		return out
	}
	return v & (1<<uint(level) - 1)
}

// ParentCell returns the Morton code of the parent (level-1) of a cell code
// at the given level.
func (s Space) ParentCell(code uint64) uint64 {
	return code >> uint(s.dim)
}

// CellsAtLevel returns the number of cells at the given level.
func (s Space) CellsAtLevel(level int) uint64 {
	return 1 << uint(s.dim*level)
}

// CellMinDist returns a lower bound on the torus distance between any point
// of cell a and any point of cell b at the given level: the infinity-norm
// distance between the cells' integer coordinate boxes, in units of cell
// side length, converted back to torus units. Adjacent or identical cells
// yield 0. Because the L2 norm dominates the max norm, the bound is valid
// for both norms of the space (it is merely less tight for L2Norm).
func (s Space) CellMinDist(a, b uint64, level int) float64 {
	if level == 0 {
		return 0
	}
	side := 1 << uint(level)
	maxGap := uint32(0)
	for i := 0; i < s.dim; i++ {
		ca := uint32(compact(a>>uint(i), s.dim, level))
		cb := uint32(compact(b>>uint(i), s.dim, level))
		gap := s.cellGap(ca, cb, uint32(side))
		if gap > maxGap {
			maxGap = gap
		}
	}
	return float64(maxGap) / float64(side)
}

// cellGap returns the number of full cells strictly between cell columns a
// and b on an axis of the given size (0 when identical or adjacent);
// cyclic on the torus, plain on the cube.
func (s Space) cellGap(a, b, size uint32) uint32 {
	var diff uint32
	if a > b {
		diff = a - b
	} else {
		diff = b - a
	}
	if s.geo == Torus {
		if other := size - diff; other < diff {
			diff = other
		}
	}
	if diff <= 1 {
		return 0
	}
	return diff - 1
}

// OffsetCoord shifts a cell column by off on an axis of the given side
// length, honoring the geometry: the torus wraps, the cube reports
// out-of-range offsets as invalid.
func (s Space) OffsetCoord(c uint32, off int, side uint32) (uint32, bool) {
	v := int(c) + off
	if s.geo == Cube {
		if v < 0 || v >= int(side) {
			return 0, false
		}
		return uint32(v), true
	}
	if m := int(side); v < 0 || v >= m {
		v = ((v % m) + m) % m
	}
	return uint32(v), true
}

// NeighborCells appends to dst the Morton codes of all cells at the given
// level whose integer coordinates differ from cell's by at most 1 per axis
// (cyclically), including the cell itself, without duplicates. For level 0
// it yields just the single cell.
func (s Space) NeighborCells(cell uint64, level int, dst []uint64) []uint64 {
	dst, _ = s.cellsAround(cell, level, false, dst, nil)
	return dst
}

// SeparatedCells appends to cells the cells B at the given level that are
// not adjacent to cell while parent(B) is adjacent to parent(cell) — the
// cell pairs "first separated" at this level, type II of the GIRG sampler —
// and to gaps, in step, the full cells between the two: CellMinDist in units
// of the cell side. Each unordered pair is generated from both endpoints.
func (s Space) SeparatedCells(cell uint64, level int, cells []uint64, gaps []uint32) ([]uint64, []uint32) {
	return s.cellsAround(cell, level, true, cells, gaps)
}

// cellsAround enumerates the cells around one cell by coordinate arithmetic.
// Per axis it lists the candidate columns — offsets -1..1, or for separated
// -3..3 (children of adjacent parents differ by at most 3) kept where the
// parent columns are adjacent — in offset order, a column the wrap repeats
// taken once and one past the cube's boundary dropped, each with its gap to
// the centre column and its bits already dilated into place. The product is
// then walked axis 0 outermost; separated skips the cells with no gap on any
// axis, which are adjacent or identical. The sampler's random stream follows
// this order, so it is part of the contract.
func (s Space) cellsAround(cell uint64, level int, separated bool, cells []uint64, gaps []uint32) ([]uint64, []uint32) {
	side := uint32(1) << uint(level)
	reach := 1
	if separated {
		reach = 3
	}
	var n, idx [MaxDim]int
	var part [MaxDim][7]uint64
	var gap [MaxDim][7]uint32
	// The dilated column d follows the offsets by dilated increments — fill
	// the holes between a column's bits, add one, clear the holes again —
	// which wrap at side as the torus does; a cube cell that would need the
	// wrap is dropped before d is read.
	holes := ^spread(uint64(side-1), s.dim, level)
	for ax := 0; ax < s.dim; ax++ {
		ca := uint32(compact(cell>>uint(ax), s.dim, level))
		d := spread(uint64(ca-uint32(reach)), s.dim, level)
		var cols [7]uint32
		k := 0
		for off := -reach; off <= reach; off, d = off+1, ((d|holes)+1)&^holes {
			c, ok := s.OffsetCoord(ca, off, side)
			if !ok || separated && s.cellGap(ca>>1, c>>1, side>>1) != 0 || slices.Contains(cols[:k], c) {
				continue
			}
			cols[k] = c
			part[ax][k] = d << uint(ax)
			gap[ax][k] = s.cellGap(ca, c, side)
			k++
		}
		n[ax] = k
	}
	// The odometer runs over all axes but the last, which is the inner loop.
	last := s.dim - 1
	for {
		var code uint64
		var maxGap uint32
		for ax := 0; ax < last; ax++ {
			code |= part[ax][idx[ax]]
			maxGap = max(maxGap, gap[ax][idx[ax]])
		}
		for k := 0; k < n[last]; k++ {
			if g := max(maxGap, gap[last][k]); !separated {
				cells = append(cells, code|part[last][k])
			} else if g != 0 {
				cells, gaps = append(cells, code|part[last][k]), append(gaps, g)
			}
		}
		ax := last - 1
		for ; ax >= 0; ax-- {
			if idx[ax]++; idx[ax] < n[ax] {
				break
			}
			idx[ax] = 0
		}
		if ax < 0 {
			return cells, gaps
		}
	}
}
