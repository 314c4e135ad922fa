package graph_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// The write-path cost tests and benchmarks run on the ledger's live-churn
// fixture — the n = 20 000 GIRG (seed 5) after the pinned pre-churn of 2 %
// joins wired to 3 contacts and 2 % leaves, delta 13 868 — and on the same
// churn scaled down to a delta of about 1 k and up to about 140 k.

const (
	churnedFP    = 0x2721ee10d01ce410 // ledger/fixture.go prechurnFP
	churnedDelta = 13868              // the ledger's graph.overlay_delta
)

// churn applies the ledger's pre-churn draws (seed 77) with its two counts
// made parameters. keep lists base vertices the churn must leave clean: they
// are not drawn as contacts, and neither they nor their neighbours leave.
func churn(g *graph.Graph, joins, leaves int, keep []int) *graph.Overlay {
	must := func(err error) {
		if err != nil {
			panic(err) // the draws are fixed: an op that does not apply is a bug
		}
	}
	kept := func(v int) bool {
		for _, k := range keep {
			if v == k || g.HasEdge(v, k) {
				return true
			}
		}
		return false
	}
	rng := xrand.New(77)
	e := graph.NewOverlay(g).Edit()
	for i := 0; i < joins; i++ {
		pos := []float64{rng.Float64(), rng.Float64()}
		id, err := e.AddVertex(pos, g.WMin()*(1+rng.Float64()))
		must(err)
		for k := 0; k < 3; k++ {
			if u := rng.IntN(g.N()); !e.Tombstoned(u) && !e.HasEdge(id, u) && !kept(u) {
				must(e.AddEdge(id, u))
			}
		}
	}
	e = e.Finish().Edit()
	for picked := 0; picked < leaves; {
		if v := rng.IntN(g.N()); !e.Tombstoned(v) && !kept(v) {
			must(e.RemoveVertex(v))
			picked++
		}
	}
	return e.Finish()
}

// costFixture is one churned overlay prepared for the probe batch: probe is
// the overlay the batch is applied to, contacts three base vertices that are
// clean and live in every fixture, so the batch touches vertices in the same
// state whatever the delta around them.
type costFixture struct {
	name     string
	probe    *graph.Overlay
	contacts [3]int
}

var costFixtures = sync.OnceValue(func() []costFixture {
	p := girg.DefaultParams(20000)
	p.FixedN = true
	g, err := girg.Generate(p, 5, girg.Options{})
	if err != nil {
		panic(err)
	}
	pinned := churn(g, g.N()/50, g.N()/50, nil)
	if pinned.Fingerprint() != churnedFP || pinned.DeltaSize() != churnedDelta {
		panic(fmt.Sprintf("pre-churned fixture is %016x with delta %d, the ledger pins %016x with %d",
			pinned.Fingerprint(), pinned.DeltaSize(), uint64(churnedFP), churnedDelta))
	}
	var contacts [3]int
	for v, k := 0, 0; k < 3; v++ {
		if add, del := pinned.Delta(v); !pinned.Tombstoned(v) && len(add)+len(del) == 0 {
			contacts[k] = v
			k++
		}
	}
	keep := contacts[:]
	fixtures := []costFixture{
		{name: "delta1k", probe: churn(g, 12, 12, keep)},
		{name: "delta14k", probe: pinned},
		{name: "delta140k", probe: churn(g, 60000, g.N()/50, keep)},
	}
	for i := range fixtures {
		f := &fixtures[i]
		f.contacts = contacts
		// One preparing batch makes the probe batch's bookkeeping identical
		// everywhere: p and q join, are wired together, and q leaves again, so
		// the tombstone bitmap and the table's chunk slice already reach the
		// word and the chunk of the id after q, which the probe's join gets.
		e := f.probe.Edit()
		join := func() int {
			v, err := e.AddVertex([]float64{0.5, 0.5}, g.WMin())
			if err != nil {
				panic(err)
			}
			return v
		}
		p, q := join(), join()
		for q%64 == 63 {
			q = join()
		}
		if err := e.AddEdge(p, q); err != nil {
			panic(err)
		}
		if err := e.RemoveVertex(q); err != nil {
			panic(err)
		}
		f.probe = e.Finish()
	}
	return fixtures
})

// probeBatch applies the live-churn stream's batch shape — one join wired to
// three contacts, one leave — to f.probe: five ops, here with the joined
// vertex itself leaving so that every vertex the batch touches starts clean.
func probeBatch(tb testing.TB, f costFixture) *graph.Overlay {
	e := f.probe.Edit()
	v, err := e.AddVertex([]float64{0.25, 0.75}, f.probe.WMin())
	for _, c := range f.contacts {
		if err == nil {
			err = e.AddEdge(v, c)
		}
	}
	if err == nil {
		err = e.RemoveVertex(v)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return e.Finish()
}

// TestOverlayEditCostIsTheBatch is the exact-count form of "a write costs
// what it touches": the five-op batch clones at most 8 of the table's chunks
// and makes the same number of allocations over a delta of 1 k, 14 k and
// 140 k.
func TestOverlayEditCostIsTheBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the n = 20 000 fixture and churns it three times")
	}
	var allocs []float64
	for _, f := range costFixtures() {
		next := probeBatch(t, f)
		if got := graph.ClonedChunks(f.probe, next); got < 1 || got > 8 {
			t.Errorf("%s (delta %d): the batch cloned %d chunks, want 1..8", f.name, f.probe.DeltaSize(), got)
		}
		if next.DirtyVertices() != f.probe.DirtyVertices() || next.DeltaSize() != f.probe.DeltaSize()+2 {
			t.Errorf("%s: join+leave moved the delta %d -> %d (dirty %d -> %d), want +1 added +1 removed",
				f.name, f.probe.DeltaSize(), next.DeltaSize(), f.probe.DirtyVertices(), next.DirtyVertices())
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { probeBatch(t, f) }))
		t.Logf("%s: delta %d, n %d: %d chunks cloned, %.0f allocs", f.name, f.probe.DeltaSize(), f.probe.N(),
			graph.ClonedChunks(f.probe, next), allocs[len(allocs)-1])
	}
	if allocs[0] != allocs[1] || allocs[1] != allocs[2] {
		t.Errorf("allocations per batch %v at delta 1k/14k/140k, want one number", allocs)
	}
}

// BenchmarkOverlayEdit times the probe batch through OverlayEdit at three
// delta sizes, each batch applied to the overlay the one before it made, as
// the mutation log does; it is flat where the delta map it replaced grew
// linearly.
func BenchmarkOverlayEdit(b *testing.B) {
	for _, f := range costFixtures() {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.probe = probeBatch(b, f)
			}
		})
	}
}

var digestSink uint64

// BenchmarkOverlayFingerprint digests the pre-churned fixture: streaming is
// Overlay.Fingerprint (an edit in front of every call defeats the memo),
// materialize the digest it replaced — build the graph, then hash it.
func BenchmarkOverlayFingerprint(b *testing.B) {
	f := costFixtures()[1]
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ov := f.probe.Edit().Finish()
			b.StartTimer()
			digestSink = ov.Fingerprint()
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := f.probe.Materialize()
			if err != nil {
				b.Fatal(err)
			}
			digestSink = graph.ReferenceFingerprint(g)
		}
	})
}
