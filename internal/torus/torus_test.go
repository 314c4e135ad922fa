package torus

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewSpaceValidation(t *testing.T) {
	for _, d := range []int{1, 2, 3, MaxDim} {
		if _, err := NewSpace(d); err != nil {
			t.Errorf("NewSpace(%d): %v", d, err)
		}
	}
	for _, d := range []int{0, -1, MaxDim + 1} {
		if _, err := NewSpace(d); err == nil {
			t.Errorf("NewSpace(%d) accepted invalid dimension", d)
		}
	}
}

func TestDistKnownValues(t *testing.T) {
	s := MustSpace(2)
	tests := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{0, 0}, 0},
		{[]float64{0.1, 0.1}, []float64{0.2, 0.1}, 0.1},
		{[]float64{0.05, 0.5}, []float64{0.95, 0.5}, 0.1}, // wraps around
		{[]float64{0, 0}, []float64{0.5, 0.5}, 0.5},
		{[]float64{0.2, 0.9}, []float64{0.3, 0.05}, 0.15},
	}
	for _, tt := range tests {
		got := s.Dist(tt.x, tt.y)
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", tt.x, tt.y, got, tt.want)
		}
	}
}

func randPoint(r *xrand.RNG, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = r.Float64()
	}
	return p
}

func TestDistMetricAxioms(t *testing.T) {
	r := xrand.New(1)
	for _, d := range []int{1, 2, 3} {
		s := MustSpace(d)
		for trial := 0; trial < 2000; trial++ {
			x, y, z := randPoint(r, d), randPoint(r, d), randPoint(r, d)
			dxy, dyx := s.Dist(x, y), s.Dist(y, x)
			if dxy != dyx {
				t.Fatalf("d=%d: asymmetric distance %v vs %v", d, dxy, dyx)
			}
			if dxy < 0 || dxy > 0.5+1e-12 {
				t.Fatalf("d=%d: distance %v outside [0, 0.5]", d, dxy)
			}
			if s.Dist(x, x) != 0 {
				t.Fatalf("d=%d: Dist(x,x) != 0", d)
			}
			if s.Dist(x, z) > dxy+s.Dist(y, z)+1e-12 {
				t.Fatalf("d=%d: triangle inequality violated", d)
			}
		}
	}
}

func TestDistPow(t *testing.T) {
	r := xrand.New(2)
	for _, d := range []int{1, 2, 3, 4} {
		s := MustSpace(d)
		for trial := 0; trial < 500; trial++ {
			x, y := randPoint(r, d), randPoint(r, d)
			want := math.Pow(s.Dist(x, y), float64(d))
			got := s.DistPow(x, y)
			if math.Abs(got-want) > 1e-12*(1+want) {
				t.Fatalf("DistPow mismatch: %v vs %v", got, want)
			}
		}
	}
}

func TestWrap(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0}, {0.25, 0.25}, {1, 0}, {1.75, 0.75}, {-0.25, 0.75}, {-3.5, 0.5},
	}
	for _, tt := range tests {
		if got := Wrap(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Wrap(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	// Wrap always lands in [0, 1).
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		w := Wrap(x)
		return w >= 0 && w < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBallVolume(t *testing.T) {
	s := MustSpace(2)
	if got := s.BallVolume(0.25); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("BallVolume(0.25) in 2d = %v, want 0.25", got)
	}
	if got := s.BallVolume(0.5); got != 1 {
		t.Errorf("BallVolume(0.5) = %v, want 1 (whole torus)", got)
	}
	if got := s.BallVolume(0.7); got != 1 {
		t.Errorf("BallVolume capped at 1, got %v", got)
	}
	if got := s.BallVolume(0); got != 0 {
		t.Errorf("BallVolume(0) = %v", got)
	}
}

func TestBallVolumeMatchesEmpirical(t *testing.T) {
	// Fraction of random points within distance r of the origin must match
	// the ball volume.
	r := xrand.New(3)
	s := MustSpace(3)
	origin := []float64{0, 0, 0}
	const radius = 0.2
	const n = 200000
	in := 0
	for i := 0; i < n; i++ {
		if s.Dist(origin, randPoint(r, 3)) <= radius {
			in++
		}
	}
	got := float64(in) / n
	want := s.BallVolume(radius)
	if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n) {
		t.Fatalf("empirical ball volume %v vs analytic %v", got, want)
	}
}

func TestPositions(t *testing.T) {
	s := MustSpace(3)
	p := NewPositions(s, 4)
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.Set(2, []float64{0.1, 0.2, 0.3})
	at := p.At(2)
	if at[0] != 0.1 || at[1] != 0.2 || at[2] != 0.3 {
		t.Fatalf("At(2) = %v", at)
	}
	p.Set(3, []float64{0.1, 0.2, 0.4})
	if got := p.Dist(2, 3); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Dist(2,3) = %v", got)
	}
	if len(p.Raw()) != 12 {
		t.Fatalf("Raw length %d", len(p.Raw()))
	}
}

func TestMortonRoundTrip(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		s := MustSpace(d)
		for level := 0; level <= 6; level++ {
			side := uint32(1) << uint(level)
			coords := make([]uint32, d)
			out := make([]uint32, d)
			r := xrand.New(uint64(d*100 + level))
			for trial := 0; trial < 200; trial++ {
				for i := range coords {
					coords[i] = uint32(r.IntN(int(side)))
				}
				code := s.EncodeCoords(coords, level)
				s.DecodeCoords(code, level, out)
				for i := range coords {
					if out[i] != coords[i] {
						t.Fatalf("d=%d level=%d: roundtrip %v -> %v", d, level, coords, out)
					}
				}
			}
		}
	}
}

func TestEncodePointMatchesCoords(t *testing.T) {
	r := xrand.New(5)
	for _, d := range []int{1, 2, 3} {
		s := MustSpace(d)
		for level := 0; level <= 8; level++ {
			for trial := 0; trial < 100; trial++ {
				pt := randPoint(r, d)
				coords := make([]uint32, d)
				for i := range coords {
					coords[i] = CellCoord(pt[i], level)
				}
				if s.Encode(pt, level) != s.EncodeCoords(coords, level) {
					t.Fatalf("Encode disagrees with EncodeCoords")
				}
			}
		}
	}
}

func TestMortonPrefixProperty(t *testing.T) {
	// The code of a point at level l-1 must be the parent of its code at l.
	r := xrand.New(7)
	for _, d := range []int{1, 2, 3} {
		s := MustSpace(d)
		for trial := 0; trial < 500; trial++ {
			pt := randPoint(r, d)
			for level := 1; level <= 8; level++ {
				child := s.Encode(pt, level)
				parent := s.Encode(pt, level-1)
				if s.ParentCell(child) != parent {
					t.Fatalf("d=%d level=%d: prefix property violated", d, level)
				}
			}
		}
	}
}

func TestCellCoordBounds(t *testing.T) {
	for level := 0; level <= 20; level++ {
		if c := CellCoord(0.9999999999999999, level); c >= 1<<uint(level) {
			t.Fatalf("CellCoord overflow at level %d: %d", level, c)
		}
		if c := CellCoord(0, level); c != 0 {
			t.Fatalf("CellCoord(0) = %d", c)
		}
	}
}

func TestCellMinDistLowerBounds(t *testing.T) {
	// For random point pairs, the cell-based lower bound must never exceed
	// the true distance.
	r := xrand.New(11)
	for _, d := range []int{1, 2, 3} {
		s := MustSpace(d)
		for level := 1; level <= 6; level++ {
			for trial := 0; trial < 1000; trial++ {
				x, y := randPoint(r, d), randPoint(r, d)
				cx, cy := s.Encode(x, level), s.Encode(y, level)
				lb := s.CellMinDist(cx, cy, level)
				if dist := s.Dist(x, y); lb > dist+1e-12 {
					t.Fatalf("d=%d level=%d: lower bound %v exceeds distance %v", d, level, lb, dist)
				}
			}
		}
	}
}

func TestCellMinDistAdjacentZero(t *testing.T) {
	s := MustSpace(2)
	level := 3
	var buf []uint64
	cell := s.EncodeCoords([]uint32{2, 5}, level)
	buf = s.NeighborCells(cell, level, buf[:0])
	for _, nb := range buf {
		if got := s.CellMinDist(cell, nb, level); got != 0 {
			t.Fatalf("adjacent cell pair has min dist %v", got)
		}
	}
}

func TestCellMinDistFarCells(t *testing.T) {
	s := MustSpace(1)
	level := 4 // 16 cells of width 1/16
	a := s.EncodeCoords([]uint32{0}, level)
	b := s.EncodeCoords([]uint32{3}, level)
	// Columns 0 and 3: cells 1, 2 strictly between -> gap 2 cells = 2/16.
	if got := s.CellMinDist(a, b, level); math.Abs(got-2.0/16) > 1e-12 {
		t.Fatalf("CellMinDist = %v, want 0.125", got)
	}
	// Cyclic wrap: columns 0 and 15 are adjacent.
	c := s.EncodeCoords([]uint32{15}, level)
	if got := s.CellMinDist(a, c, level); got != 0 {
		t.Fatalf("cyclically adjacent cells have min dist %v", got)
	}
}

func TestNeighborCellsCount(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		s := MustSpace(d)
		for level := 0; level <= 4; level++ {
			side := 1 << uint(level)
			perAxis := 3
			if side == 1 {
				perAxis = 1
			} else if side == 2 {
				perAxis = 2
			}
			want := 1
			for i := 0; i < d; i++ {
				want *= perAxis
			}
			cell := uint64(0)
			got := s.NeighborCells(cell, level, nil)
			if len(got) != want {
				t.Fatalf("d=%d level=%d: %d neighbors, want %d", d, level, len(got), want)
			}
			seen := make(map[uint64]bool)
			for _, c := range got {
				if seen[c] {
					t.Fatalf("duplicate neighbor cell %d", c)
				}
				seen[c] = true
				if c >= s.CellsAtLevel(level) {
					t.Fatalf("neighbor cell %d out of range", c)
				}
			}
		}
	}
}

func TestNeighborCellsAreActuallyAdjacent(t *testing.T) {
	r := xrand.New(13)
	s := MustSpace(2)
	level := 4
	coords := make([]uint32, 2)
	for trial := 0; trial < 200; trial++ {
		coords[0] = uint32(r.IntN(16))
		coords[1] = uint32(r.IntN(16))
		cell := s.EncodeCoords(coords, level)
		for _, nb := range s.NeighborCells(cell, level, nil) {
			if s.CellMinDist(cell, nb, level) != 0 {
				t.Fatalf("NeighborCells returned non-adjacent cell")
			}
		}
	}
}

func TestNeighborhoodCoversCloseness(t *testing.T) {
	// Any two points within one cell side of each other must land in
	// neighboring cells; i.e. the neighborhood covers the close regime.
	r := xrand.New(17)
	s := MustSpace(2)
	level := 5
	side := 1.0 / 32
	for trial := 0; trial < 2000; trial++ {
		x := randPoint(r, 2)
		y := []float64{Wrap(x[0] + (r.Float64()*2-1)*side), Wrap(x[1] + (r.Float64()*2-1)*side)}
		cx, cy := s.Encode(x, level), s.Encode(y, level)
		found := false
		for _, nb := range s.NeighborCells(cx, level, nil) {
			if nb == cy {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point within one cell side not in neighborhood: %v %v", x, y)
		}
	}
}

func TestMaxLevel(t *testing.T) {
	for d := 1; d <= MaxDim; d++ {
		s := MustSpace(d)
		l := s.MaxLevel()
		if d*l > 62 {
			t.Fatalf("d=%d: MaxLevel %d overflows code", d, l)
		}
		if d*(l+1) <= 62 {
			t.Fatalf("d=%d: MaxLevel %d not maximal", d, l)
		}
	}
}

func BenchmarkDist2D(b *testing.B) {
	s := MustSpace(2)
	x := []float64{0.1, 0.9}
	y := []float64{0.8, 0.2}
	for i := 0; i < b.N; i++ {
		_ = s.Dist(x, y)
	}
}

func TestCubeDistanceNoWrap(t *testing.T) {
	s, err := NewSpaceFull(2, MaxNorm, Cube)
	if err != nil {
		t.Fatal(err)
	}
	// On the cube, 0.05 and 0.95 are 0.9 apart (no wrap).
	if got := s.Dist([]float64{0.05, 0.5}, []float64{0.95, 0.5}); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("cube dist = %v, want 0.9", got)
	}
	// The torus wraps the same pair to 0.1.
	ts := MustSpace(2)
	if got := ts.Dist([]float64{0.05, 0.5}, []float64{0.95, 0.5}); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("torus dist = %v, want 0.1", got)
	}
}

func TestCubeNeighborCellsAtBoundary(t *testing.T) {
	s, err := NewSpaceFull(1, MaxNorm, Cube)
	if err != nil {
		t.Fatal(err)
	}
	level := 3 // 8 cells
	// Corner cell 0 has only 2 neighbors (itself and cell 1) on the cube.
	got := s.NeighborCells(s.EncodeCoords([]uint32{0}, level), level, nil)
	if len(got) != 2 {
		t.Fatalf("cube corner neighbors: %d, want 2 (%v)", len(got), got)
	}
	// On the torus it has 3 (wraps to cell 7).
	ts := MustSpace(1)
	got = ts.NeighborCells(ts.EncodeCoords([]uint32{0}, level), level, nil)
	if len(got) != 3 {
		t.Fatalf("torus corner neighbors: %d, want 3", len(got))
	}
}

func TestCubeCellMinDistNoWrap(t *testing.T) {
	s, err := NewSpaceFull(1, MaxNorm, Cube)
	if err != nil {
		t.Fatal(err)
	}
	level := 4 // 16 cells
	a := s.EncodeCoords([]uint32{0}, level)
	b := s.EncodeCoords([]uint32{15}, level)
	// Cube: 14 cells strictly between -> 14/16.
	if got := s.CellMinDist(a, b, level); math.Abs(got-14.0/16) > 1e-12 {
		t.Fatalf("cube CellMinDist = %v, want 0.875", got)
	}
	// Torus: adjacent across the wrap.
	ts := MustSpace(1)
	if got := ts.CellMinDist(a, b, level); got != 0 {
		t.Fatalf("torus CellMinDist = %v, want 0", got)
	}
}

func TestOffsetCoord(t *testing.T) {
	cube, _ := NewSpaceFull(1, MaxNorm, Cube)
	tor := MustSpace(1)
	if _, ok := cube.OffsetCoord(0, -1, 8); ok {
		t.Fatal("cube accepted off-grid offset")
	}
	if c, ok := cube.OffsetCoord(3, 2, 8); !ok || c != 5 {
		t.Fatalf("cube offset: %d %v", c, ok)
	}
	if c, ok := tor.OffsetCoord(0, -1, 8); !ok || c != 7 {
		t.Fatalf("torus wrap: %d %v", c, ok)
	}
	if c, ok := tor.OffsetCoord(7, 3, 8); !ok || c != 2 {
		t.Fatalf("torus wrap forward: %d %v", c, ok)
	}
}

func TestCubeCellMinDistLowerBounds(t *testing.T) {
	r := xrand.New(19)
	s, err := NewSpaceFull(2, MaxNorm, Cube)
	if err != nil {
		t.Fatal(err)
	}
	for level := 1; level <= 6; level++ {
		for trial := 0; trial < 500; trial++ {
			x, y := randPoint(r, 2), randPoint(r, 2)
			lb := s.CellMinDist(s.Encode(x, level), s.Encode(y, level), level)
			if dist := s.Dist(x, y); lb > dist+1e-12 {
				t.Fatalf("cube lower bound %v exceeds distance %v", lb, dist)
			}
		}
	}
}
