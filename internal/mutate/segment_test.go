package mutate

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
)

// openPair opens two logs over the same base graph in separate directories —
// a primary and a replica of one replicated history.
func openPair(t *testing.T, n int, seed uint64) (*Log, *Log) {
	t.Helper()
	g := testGraph(t, n, seed)
	primary, err := Open(t.TempDir(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	replica, err := Open(t.TempDir(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	return primary, replica
}

// TestSegmentRoundTrip pins the replication invariant: a replica that has
// imported every exported batch is bit-identical to the primary — same
// position (seq, epoch, live fingerprint) and the same journal bytes, so a
// re-export from the replica equals the primary's export.
func TestSegmentRoundTrip(t *testing.T) {
	primary, replica := openPair(t, 80, 5)
	for _, ops := range genBatches(t, primary.Base(), 6, 11) {
		if _, err := primary.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	pos := primary.Position()
	seg, err := primary.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Batches) != 6 {
		t.Fatalf("exported %d batches, want 6", len(seg.Batches))
	}
	applied, err := replica.Import(seg)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 6 {
		t.Fatalf("imported %d batches, want 6", applied)
	}
	if got := replica.Position(); got != pos {
		t.Fatalf("replica position %+v != primary %+v", got, pos)
	}
	back, err := replica.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.Batches {
		if string(back.Batches[i]) != string(seg.Batches[i]) {
			t.Fatalf("batch %d journal bytes diverge after import", i)
		}
	}
}

// TestSegmentImportIdempotent pins the re-ship case: importing a segment the
// replica already holds verifies byte equality and applies nothing.
func TestSegmentImportIdempotent(t *testing.T) {
	primary, replica := openPair(t, 80, 6)
	for _, ops := range genBatches(t, primary.Base(), 3, 13) {
		if _, err := primary.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	pos := primary.Position()
	seg, err := primary.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Import(seg); err != nil {
		t.Fatal(err)
	}
	applied, err := replica.Import(seg)
	if err != nil {
		t.Fatalf("re-import of held batches: %v", err)
	}
	if applied != 0 {
		t.Fatalf("re-import applied %d batches, want 0", applied)
	}
	if got := replica.Position(); got != pos {
		t.Fatalf("position moved on idempotent import: %+v", got)
	}
}

// TestSegmentGap pins the push-ahead case: a segment starting past the
// replica's seq is refused with a gap SyncError carrying the seq to re-ship
// from, and nothing is applied.
func TestSegmentGap(t *testing.T) {
	primary, replica := openPair(t, 80, 7)
	for _, ops := range genBatches(t, primary.Base(), 4, 17) {
		if _, err := primary.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	pos := primary.Position()
	seg, err := primary.Export(pos.BaseFP, pos.Generation, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := replica.Import(seg)
	var syncErr *SyncError
	if !errors.As(err, &syncErr) || syncErr.Field != "gap" {
		t.Fatalf("gap import: err = %v, want gap *SyncError", err)
	}
	if syncErr.Got != "0" {
		t.Fatalf("gap SyncError reports seq %q, want 0 (the re-ship point)", syncErr.Got)
	}
	if applied != 0 || replica.Position().Seq != 0 {
		t.Fatalf("gap import applied %d batches (seq %d), want none", applied, replica.Position().Seq)
	}
}

// TestSegmentHistoryMismatch pins the coordinate binding: exports and
// imports against the wrong base fingerprint or generation are refused as
// SyncErrors before any byte is applied.
func TestSegmentHistoryMismatch(t *testing.T) {
	primary, replica := openPair(t, 80, 8)
	for _, ops := range genBatches(t, primary.Base(), 2, 19) {
		if _, err := primary.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	pos := primary.Position()

	var syncErr *SyncError
	if _, err := primary.Export("0000000000000000", pos.Generation, 0, 0); !errors.As(err, &syncErr) || syncErr.Field != "base" {
		t.Fatalf("wrong-base export: err = %v, want base *SyncError", err)
	}
	if _, err := primary.Export(pos.BaseFP, pos.Generation+1, 0, 0); !errors.As(err, &syncErr) || syncErr.Field != "generation" {
		t.Fatalf("wrong-generation export: err = %v, want generation *SyncError", err)
	}

	seg, err := primary.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := seg
	bad.Generation = pos.Generation + 1
	if _, err := replica.Import(bad); !errors.As(err, &syncErr) || syncErr.Field != "generation" {
		t.Fatalf("wrong-generation import: err = %v, want generation *SyncError", err)
	}
	if replica.Position().Seq != 0 {
		t.Fatal("refused import still applied batches")
	}
}

// TestSegmentDivergence pins the split-history case: a replica whose journal
// holds a different batch at the same seq refuses the re-ship as a batch
// SyncError instead of silently keeping either side.
func TestSegmentDivergence(t *testing.T) {
	primary, replica := openPair(t, 80, 9)
	if _, err := primary.Apply(genBatches(t, primary.Base(), 1, 23)[0]); err != nil {
		t.Fatal(err)
	}
	// The replica journals a different first batch — a forked history.
	if _, err := replica.Apply(genBatches(t, replica.Base(), 1, 31)[0]); err != nil {
		t.Fatal(err)
	}
	pos := primary.Position()
	seg, err := primary.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var syncErr *SyncError
	if _, err := replica.Import(seg); !errors.As(err, &syncErr) || syncErr.Field != "batch" {
		t.Fatalf("divergent import: err = %v, want batch *SyncError", err)
	}
}

// TestSegmentExportPaged pins the pull pacing: max bounds one answer and
// consecutive exports walk the full range.
func TestSegmentPaged(t *testing.T) {
	primary, replica := openPair(t, 80, 10)
	for _, ops := range genBatches(t, primary.Base(), 5, 29) {
		if _, err := primary.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	pos := primary.Position()
	for replica.Position().Seq < pos.Seq {
		seg, err := primary.Export(pos.BaseFP, pos.Generation, replica.Position().Seq, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Batches) == 0 || len(seg.Batches) > 2 {
			t.Fatalf("page of %d batches, want 1..2", len(seg.Batches))
		}
		if _, err := replica.Import(seg); err != nil {
			t.Fatal(err)
		}
	}
	if got := replica.Position(); got != pos {
		t.Fatalf("paged pull converged to %+v, want %+v", got, pos)
	}
}

// TestDigestOffTheLock pins the ack path: with a Position digest held up
// mid-flight, Apply, Head and Stats go on — no Overlay.Fingerprint runs under
// Log.mu — and the held Position, once released, is that of the one overlay
// it captured, not a mix of it and the batches applied meanwhile.
func TestDigestOffTheLock(t *testing.T) {
	g := testGraph(t, 80, 21)
	l := mustOpen(t, t.TempDir(), g, Config{})
	batches := genBatches(t, g, 7, 22)
	applyAll(t, l, batches[:1])
	want := l.Position()

	entered, release := make(chan uint64, 8), make(chan struct{})
	l.digest = func(ov *graph.Overlay) uint64 {
		entered <- ov.Epoch()
		<-release
		return ov.Fingerprint()
	}
	held := make(chan Position, 1)
	go func() { held <- l.Position() }()
	if epoch := <-entered; epoch != 1 {
		t.Fatalf("held digest is of epoch %d, want 1", epoch)
	}
	// The digest of epoch 1 is blocked. Applies must make progress.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ops := range batches[1:] {
			if _, err := l.Apply(ops); err != nil {
				t.Errorf("apply under a blocked digest: %v", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(release) // or the deferred Close waits for the lock as well
		t.Fatal("Apply waits for a digest: Overlay.Fingerprint runs under Log.mu")
	}
	if h := l.Head(); h.Seq != 7 || h.Epoch != 7 || h.LiveFP != "" {
		t.Fatalf("Head under a blocked digest = %+v, want seq 7, epoch 7, no fingerprint", h)
	}
	if st := l.Stats(); st.Batches != 7 {
		t.Fatalf("Stats under a blocked digest: %d batches, want 7", st.Batches)
	}

	close(release)
	if p := <-held; p != want {
		t.Fatalf("released Position %+v, want the overlay of epoch 1: %+v", p, want)
	}
	if p := l.Position(); p.Epoch != 7 || p.Seq != 7 || p.LiveFP == want.LiveFP {
		t.Fatalf("Position after the applies = %+v, want epoch 7 with a new fingerprint", p)
	}
	close(entered)
	var digested []uint64
	for epoch := range entered {
		digested = append(digested, epoch)
	}
	if !reflect.DeepEqual(digested, []uint64{7}) {
		t.Fatalf("after the held digest, digests of epochs %v; want [7]: one per Position, none from Apply", digested)
	}
}
