package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/xrand"
)

// The fixtures are pinned: both graphs and the pre-churned overlay must be
// the ones the ledger's numbers were recorded on.
func TestFixtureFingerprints(t *testing.T) {
	big, err := bigFixture.generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smallFixture.generate(); err != nil {
		t.Fatal(err)
	}
	batches, ov, err := prechurn(big.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if fp := ov.Fingerprint(); fp != prechurnFP {
		t.Errorf("pre-churned overlay is %016x, pinned %016x", fp, uint64(prechurnFP))
	}
	// The two batches are what the mutation log journals at set-up: replayed
	// on the empty overlay they must give the same graph.
	replay := graph.NewOverlay(big.Graph)
	for _, ops := range batches {
		if replay, err = applyBatch(replay, ops); err != nil {
			t.Fatal(err)
		}
	}
	if replay.Fingerprint() != ov.Fingerprint() {
		t.Error("pre-churn batches do not replay to the pre-churned overlay")
	}
	if st := ov.Stats(); st.AddedVertices != 400 || st.RemovedVertices != 400 {
		t.Errorf("pre-churn added %d and removed %d vertices, want 2 %% of 20000 each", st.AddedVertices, st.RemovedVertices)
	}
}

// churnInputs builds the live-churn inputs of one seed on the pre-churned
// overlay, with a short pair list.
func churnInputs(t *testing.T, nw *core.Network, ov *graph.Overlay, seed uint64, count int) (pairList, *churnStream) {
	t.Helper()
	pl, onPath := drawLivePairs(nw, ov, seed, count)
	cs, err := newChurnStream(seed, ov, onPath)
	if err != nil {
		t.Fatal(err)
	}
	return pl, cs
}

// The same --seed gives the same pairs and mutation batches, another seed
// gives others; and the stream never changes a read's episode.
func TestSeedDeterminesInputs(t *testing.T) {
	small, err := smallFixture.generate()
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) pairList {
		return drawPairs(small.Giant(), xrand.New(mix(seed, lanePairs)), pairCount, csrWalk(small.Graph), nil)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if len(a.pairs) != pairCount || a.hash() != b.hash() || a.drawn != b.drawn {
		t.Errorf("seed 7 drew %d pairs with digests %016x and %016x", len(a.pairs), a.hash(), b.hash())
	}
	if a.hash() == c.hash() {
		t.Error("seeds 7 and 8 drew the same pair list")
	}
	for _, p := range a.pairs {
		if p.s == p.t || p.moves < 1 {
			t.Fatalf("degenerate pair %+v", p)
		}
	}

	big, err := bigFixture.generate()
	if err != nil {
		t.Fatal(err)
	}
	_, ov, err := prechurn(big.Graph)
	if err != nil {
		t.Fatal(err)
	}
	const pairs, batches = 200, 3 * churnLag
	pl1, cs1 := churnInputs(t, big, ov, 7, pairs)
	pl2, cs2 := churnInputs(t, big, ov, 7, pairs)
	pl3, cs3 := churnInputs(t, big, ov, 8, pairs)
	if pl1.hash() != pl2.hash() || cs1.hash(batches) != cs2.hash(batches) {
		t.Error("seed 7 gave two different live-churn inputs")
	}
	if pl1.hash() == pl3.hash() || cs1.hash(batches) == cs3.hash(batches) {
		t.Error("seeds 7 and 8 gave the same live-churn inputs")
	}

	// Replay the stream: every batch must apply (contacts live, the leaver
	// present), the delta must stay bounded, and every pair must keep the
	// episode recorded at set-up at every epoch it is checked.
	cur := ov
	var out route.Result
	for b := 0; b < batches; b++ {
		ops := cs1.batch(b)
		if want := 4 + min(b/churnLag, 1); len(ops) != want {
			t.Fatalf("batch %d has %d ops, want %d", b, len(ops), want)
		}
		if cur, err = applyBatch(cur, ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if b%16 != 15 {
			continue
		}
		walk := overlayWalk(cur)
		for _, p := range pl1.pairs {
			walk(int(p.s), int(p.t), &out)
			if !p.matches(out.Success, out.Moves, out.Unique) || hashPath(out.Path) != p.pathHash {
				t.Fatalf("after batch %d pair (%d, %d) walks %v, not the episode recorded at set-up", b, p.s, p.t, out.Path)
			}
		}
	}
	grown := cur.DeltaSize() - ov.DeltaSize()
	if limit := batches*2 + churnLag*4; grown > limit {
		t.Errorf("delta grew by %d over %d batches, want at most %d (joins leave again after %d batches)", grown, batches, limit, churnLag)
	}
}
