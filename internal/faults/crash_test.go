package faults

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/xrand"
)

// crashCoreReference is crash-core's crash set by the sort-and-mark
// definition: rank every vertex by weight (ties by id) and mark the top
// fraction. Bind keeps only the last marked vertex; this is what it must
// agree with.
func crashCoreReference(g route.Graph, fraction float64) []bool {
	n := g.N()
	crashed := make([]bool, n)
	k := int(fraction * float64(n))
	if k <= 0 {
		return crashed
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		wi, wj := g.Weight(order[i]), g.Weight(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	for _, v := range order[:k] {
		crashed[v] = true
	}
	return crashed
}

// FuzzCrashCore checks crash-core's pivot test against the reference on
// random weights drawn from a few levels, so ties straddle the pivot, on
// both a *graph.Graph (memoized order) and a plain route.Graph (sorted per
// bind). The seeds cover k = 0, k = 1 and k = n.
func FuzzCrashCore(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(3), 0.1)
	f.Add(uint64(2), uint16(50), uint8(1), 0.5)   // one weight level: ids decide
	f.Add(uint64(3), uint16(40), uint8(4), 0.0)   // k = 0
	f.Add(uint64(4), uint16(40), uint8(4), 0.026) // k = 1
	f.Add(uint64(5), uint16(40), uint8(2), 1.0)   // k = n
	f.Add(uint64(6), uint16(1), uint8(5), 1.0)    // a single vertex
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, levels uint8, rate float64) {
		if !(rate >= 0 && rate <= 1) {
			return
		}
		size := int(n)%500 + 1
		rng := xrand.New(seed)
		weights := make([]float64, size)
		for v := range weights {
			weights[v] = float64(rng.IntN(int(levels)%8 + 1))
		}
		b, err := graph.NewBuilder(size, nil, weights, float64(size), 1)
		if err != nil {
			t.Fatal(err)
		}
		plain := &testGraph{adj: make([][]int32, size), weights: weights}
		for _, g := range []route.Graph{b.Finish(), plain} {
			want := crashCoreReference(g, rate)
			bound := crashCore{fraction: rate}.Bind(g, seed)
			for v := -1; v <= size; v++ {
				if got := bound.Crashed(v); got != (v >= 0 && v < size && want[v]) {
					t.Fatalf("%T, n = %d, rate %g: Crashed(%d) = %v, reference says %v (weight %g)",
						g, size, rate, v, got, !got, g.Weight(max(0, min(v, size-1))))
				}
			}
		}
	})
}

// TestCrashCoreBindIsConstant pins the cost of binding crash-core to a
// snapshot: once the graph has memoized its weight order, a Bind allocates
// the same bytes at n = 2 000 and n = 20 000 — no n-sized crash set, no
// per-bind sort.
func TestCrashCoreBindIsConstant(t *testing.T) {
	bytesPerBind := func(n int) uint64 {
		rng := xrand.New(uint64(n))
		weights := make([]float64, n)
		for v := range weights {
			weights[v] = rng.PowerLaw(1, 2.5)
		}
		b, err := graph.NewBuilder(n, nil, weights, float64(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		g := b.Finish()
		m := crashCore{fraction: 0.1}
		m.Bind(g, 0)
		runtime.GC()
		// The counters are process-wide (the race runtime and the GC
		// allocate too), so the fewest bytes over a few rounds is Bind's.
		const runs = 100
		least := uint64(math.MaxUint64)
		for round := 0; round < 5; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if m.Bind(g, uint64(i)).Crashed(-1) {
					t.Fatal("vertex -1 crashed")
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	if small, large := bytesPerBind(2000), bytesPerBind(20000); small != large {
		t.Fatalf("crash-core Bind allocates %d B at n = 2000 but %d B at n = 20000", small, large)
	}
}
