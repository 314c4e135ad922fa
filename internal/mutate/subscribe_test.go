package mutate

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/graph"
)

// published is one call a subscriber received.
type published struct {
	base *graph.Graph
	ov   *graph.Overlay
}

// TestSubscribeSeesEveryCommit pins when the log publishes: once when a
// subscriber attaches, once per applied batch, once per import that applied
// anything (however many batches it carried, and also when it then failed),
// once per compaction — and never for a rejected batch or an import that
// applied nothing. Every call hands over exactly what the log holds live.
func TestSubscribeSeesEveryCommit(t *testing.T) {
	primary, l := openPair(t, 120, 21)
	batches := genBatches(t, l.Base(), 8, 22)
	var calls []published
	l.Subscribe(func(base *graph.Graph, ov *graph.Overlay) {
		calls = append(calls, published{base, ov})
	})
	expect := func(n int, epoch uint64, what string) {
		t.Helper()
		if len(calls) != n {
			t.Fatalf("%s: %d calls, want %d", what, len(calls), n)
		}
		last := calls[n-1]
		if last.base != l.Base() || last.ov != l.Overlay() {
			t.Fatalf("%s: last call handed epoch %d, the log is live at epoch %d", what, last.ov.Epoch(), l.Overlay().Epoch())
		}
		if got := last.ov.Epoch(); got != epoch {
			t.Fatalf("%s: epoch %d, want %d", what, got, epoch)
		}
	}
	expect(1, 0, "attach")

	applyAll(t, l, batches[:2])
	expect(3, 2, "two applies")
	if _, err := l.Apply(nil); err == nil {
		t.Fatal("empty batch applied")
	}
	if _, err := l.Apply([]Op{{Op: OpAddEdge, U: 0, V: 1 << 20}}); err == nil {
		t.Fatal("out-of-range edge applied")
	}
	expect(3, 2, "rejected batches")

	// The primary journaled the same first two batches, so an import from 0
	// verifies those and applies the other four: one call.
	applyAll(t, primary, batches[:6])
	head := primary.Head()
	seg, err := primary.Export(head.BaseFP, head.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.Import(seg); err != nil || n != 4 {
		t.Fatalf("import applied %d (%v), want 4", n, err)
	}
	expect(4, 6, "import")
	if n, err := l.Import(seg); err != nil || n != 0 {
		t.Fatalf("re-import applied %d (%v), want 0", n, err)
	}
	expect(4, 6, "re-import")

	// Two good batches and a corrupt third: the two commit, so one call.
	applyAll(t, primary, batches[6:])
	seg, err = primary.Export(head.BaseFP, head.Generation, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg.Batches = append(seg.Batches, []byte{0xff})
	var corrupt *CorruptError
	if n, err := l.Import(seg); n != 2 || !errors.As(err, &corrupt) {
		t.Fatalf("import of a corrupt tail applied %d (%v), want 2 and a *CorruptError", n, err)
	}
	expect(5, 8, "import that failed after applying")

	// An idle compaction hands over the folded base and an empty overlay.
	before := calls[len(calls)-1]
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	expect(6, 0, "compaction")
	after := calls[len(calls)-1]
	if after.base == before.base || !after.ov.Empty() {
		t.Fatal("compaction did not hand over a new base with an empty overlay")
	}
	if got, want := after.base.Fingerprint(), before.ov.Fingerprint(); got != want {
		t.Fatalf("folded base %016x, live graph before the fold %016x", got, want)
	}
}

// TestSubscribeInCommitOrder races applies against compactions and checks
// that the subscriber sees one call per commit in commit order: within a
// base, epochs step by one; a new base (a compaction) carries the same live
// graph; every batch an Apply acknowledged was handed over, after the
// caller's earlier batches; and the last call is what the log holds live.
func TestSubscribeInCommitOrder(t *testing.T) {
	const writers, perWriter, compactions = 4, 25, 4
	l := mustOpen(t, t.TempDir(), testGraph(t, 200, 23), Config{})
	var seen []published // appended under the log's lock
	l.Subscribe(func(base *graph.Graph, ov *graph.Overlay) {
		seen = append(seen, published{base, ov})
	})

	acked := make([][]Applied, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				pos := []float64{tf(uint64(w), uint64(2*i)), tf(uint64(w), uint64(2*i+1))}
				app, err := l.Apply([]Op{{Op: OpAddVertex, Pos: pos, W: 2}})
				if err != nil {
					t.Error(err)
					return
				}
				acked[w] = append(acked[w], app)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 0; c < compactions; c++ {
			if err := l.Compact(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	st := l.Stats()
	if want := 1 + writers*perWriter + int(st.Compactions); len(seen) != want {
		t.Fatalf("%d calls, want %d (attach + %d applies + %d compactions)", len(seen), want, writers*perWriter, st.Compactions)
	}
	type coord struct {
		gen   int
		epoch uint64
	}
	at := map[coord]int{}
	gen := 1
	for i, p := range seen {
		if i > 0 {
			prev := seen[i-1]
			switch {
			case p.base == prev.base && p.ov.Epoch() != prev.ov.Epoch()+1:
				t.Fatalf("call %d: epoch %d follows %d on the same base", i, p.ov.Epoch(), prev.ov.Epoch())
			case p.base != prev.base:
				gen++
				if p.ov.Fingerprint() != prev.ov.Fingerprint() {
					t.Fatalf("call %d: the compaction to generation %d changed the live graph", i, gen)
				}
			}
		}
		at[coord{gen, p.ov.Epoch()}] = i
	}
	if gen != st.Generation {
		t.Fatalf("calls walk %d generations, the log is at %d", gen, st.Generation)
	}
	for w, apps := range acked {
		last := -1
		for _, app := range apps {
			i, ok := at[coord{app.Generation, app.Epoch}]
			if !ok || i <= last {
				t.Fatalf("writer %d: batch (generation %d, epoch %d) handed over at call %d (found %v), after call %d",
					w, app.Generation, app.Epoch, i, ok, last)
			}
			last = i
		}
	}
	if end := seen[len(seen)-1]; end.base != l.Base() || end.ov != l.Overlay() {
		t.Fatal("the last call is not what the log holds live")
	}
}
