package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/graphio"
	"repro/internal/mutate"
)

// liveServer builds a Server with a mutation log driving the default slot,
// wired the way cmd/smallworldd wires it.
func liveServer(t testing.TB, n float64, seed uint64, cfg mutate.Config) (*Server, *mutate.Log, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	nw := testNetwork(t, n, seed)
	log, err := mutate.Open(t.TempDir(), nw.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if err := s.EnableMutation(log, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, log, ts
}

// postMutate marshals req against /admin/mutate and decodes whichever body
// the status implies.
func postMutate(t testing.TB, url string, req MutateRequest) (*http.Response, MutateResponse, ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/admin/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok MutateResponse
	var bad ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&bad)
	}
	return resp, ok, bad
}

func getReady(t *testing.T, url string) ReadyResponse {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d", resp.StatusCode)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	return ready
}

// TestMutateAppliesAndRoutes is the happy path: a batch adds a vertex wired
// into the graph, the response assigns its id, /readyz reports the new
// epoch, and the added vertex routes.
func TestMutateAppliesAndRoutes(t *testing.T) {
	s, log, ts := liveServer(t, 400, 11, mutate.Config{})
	baseN := log.Base().N()

	resp, mr, _ := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{
		{Op: mutate.OpAddVertex, Pos: []float64{0.5, 0.5}, W: 2.0},
		{Op: mutate.OpAddEdge, U: baseN, V: 0},
		{Op: mutate.OpAddEdge, U: baseN, V: 1},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
	if len(mr.Assigned) != 1 || mr.Assigned[0] != baseN {
		t.Fatalf("assigned %v, want [%d]", mr.Assigned, baseN)
	}
	if mr.Epoch != 1 || mr.Generation != 1 || mr.Seq != 0 {
		t.Fatalf("batch located at gen=%d seq=%d epoch=%d", mr.Generation, mr.Seq, mr.Epoch)
	}

	ready := getReady(t, ts.URL)
	live := ready.Graphs[DefaultGraph].Live
	if live == nil {
		t.Fatal("/readyz has no live section on the mutable slot")
	}
	if live.Epoch != 1 || live.Vertices != baseN+1 || live.AddedVertices != 1 {
		t.Fatalf("live section %+v", live)
	}
	if live.Fingerprint != fingerprintHex(log.Fingerprint()) {
		t.Fatalf("live fingerprint %s != log %s", live.Fingerprint, fingerprintHex(log.Fingerprint()))
	}

	// The added vertex is addressable as a routing endpoint.
	r, rr, _ := postRoute(t, ts.URL, RouteRequest{S: baseN, T: 5})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("route from added vertex = %d", r.StatusCode)
	}
	if rr.Moves == 0 && !rr.Success {
		t.Fatalf("added vertex routed nowhere: %+v", rr)
	}
	if s.Stats().Mutations != 1 {
		t.Fatalf("mutations counter = %d", s.Stats().Mutations)
	}
}

// TestMutateRejectsInvalidBatch: a semantically invalid op is 422 with the
// failing index, nothing is journaled or published, and routing still sees
// the pre-batch graph.
func TestMutateRejectsInvalidBatch(t *testing.T) {
	s, log, ts := liveServer(t, 400, 12, mutate.Config{})
	before := log.Fingerprint()

	resp, _, bad := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{
		{Op: mutate.OpAddEdge, U: 0, V: 1 << 20}, // far out of range
	}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid op: status %d, want 422", resp.StatusCode)
	}
	if bad.Error == "" {
		t.Fatal("422 with empty error body")
	}
	if log.Fingerprint() != before {
		t.Fatal("rejected batch changed the live graph")
	}
	if st := log.Stats(); st.Batches != 0 || st.Rejected != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}

	// Malformed JSON is 400, not 422.
	resp2, err := http.Post(ts.URL+"/admin/mutate", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp2.StatusCode)
	}
	if s.Stats().Mutations != 0 {
		t.Fatal("rejected batches counted as mutations")
	}
}

// TestMutateDisabledAndWrongSlot: without a log /admin/mutate is 404; with
// one, only the enabled slot is mutable.
func TestMutateDisabledAndWrongSlot(t *testing.T) {
	s := New(Config{})
	s.AddNetwork("", testNetwork(t, 300, 13))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _, _ := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{{Op: mutate.OpRemoveVertex, V: 0}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("mutation disabled: status %d, want 404", resp.StatusCode)
	}

	_, _, ts2 := liveServer(t, 300, 14, mutate.Config{})
	resp2, _, _ := postMutate(t, ts2.URL, MutateRequest{Graph: "other", Ops: []mutate.Op{{Op: mutate.OpRemoveVertex, V: 0}}})
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("immutable slot: status %d, want 404", resp2.StatusCode)
	}
}

// TestMutateTombstoneDeadEnds: removing a vertex turns walks through it into
// classified dead-ends, never 5xx or hangs; routing *to* it is a dead-end as
// well because its adjacency reads empty.
func TestMutateTombstoneDeadEnds(t *testing.T) {
	_, log, ts := liveServer(t, 400, 15, mutate.Config{})
	resp, _, _ := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{
		{Op: mutate.OpRemoveVertex, V: 7},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}
	if !log.Overlay().Tombstoned(7) {
		t.Fatal("vertex 7 not tombstoned")
	}
	// Routing from the tombstone is a definitive 200 dead-end.
	r, rr, _ := postRoute(t, ts.URL, RouteRequest{S: 7, T: 300})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("route from tombstone = %d, want 200", r.StatusCode)
	}
	if rr.Success || rr.Failure != "dead-end" {
		t.Fatalf("route from tombstone: %+v, want dead-end", rr)
	}
}

// TestMutateSurvivesCompactionHotSwap: automatic compaction folds the
// overlay into a snapshot mid-stream; the served slot hot-swaps to the
// folded base and further mutations and routes keep working on generation 2.
func TestMutateSurvivesCompactionHotSwap(t *testing.T) {
	s, log, ts := liveServer(t, 400, 16, mutate.Config{CompactAt: 4})
	baseBefore := log.Base()
	for i := 0; i < 8; i++ {
		resp, _, _ := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{
			{Op: mutate.OpRemoveVertex, V: 100 + i},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: status %d", i, resp.StatusCode)
		}
	}
	// The background compactor fires once DeltaSize crosses CompactAt; wait
	// for its commit (generation bump), then mutate once more on top of the
	// folded base.
	deadline := time.Now().Add(10 * time.Second)
	for log.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, mr, _ := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{
		{Op: mutate.OpRemoveVertex, V: 42},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-compaction mutate: status %d", resp.StatusCode)
	}
	if mr.Generation < 2 {
		t.Fatalf("generation %d after compaction, want >= 2", mr.Generation)
	}
	nw, _ := s.Network("")
	if nw.Graph == baseBefore {
		t.Fatal("served base not hot-swapped after compaction")
	}
	if got := fingerprintHex(nw.LiveOverlay().Fingerprint()); got != fingerprintHex(log.Fingerprint()) {
		t.Fatalf("served live fingerprint %s != log %s", got, fingerprintHex(log.Fingerprint()))
	}
	if s.Stats().CompactSwaps == 0 {
		t.Fatal("no compacted snapshot was hot-swapped")
	}
	r, _, _ := postRoute(t, ts.URL, RouteRequest{S: 1, T: 200})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("route after compaction = %d", r.StatusCode)
	}
}

// TestSwapNoOpOnMatchingFingerprint is the idempotent-swap gate: loading a
// snapshot whose fingerprint matches the installed graph answers 200
// without replacing the network, and the no-op counter ticks.
func TestSwapNoOpOnMatchingFingerprint(t *testing.T) {
	s := New(Config{})
	nw := testNetwork(t, 400, 17)
	s.AddNetwork("", nw)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "same.girgb")
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		return graphio.WriteBinary(w, nw.Graph)
	}); err != nil {
		t.Fatal(err)
	}

	resp, sw, _ := postSwap(t, ts.URL, SwapRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op swap: status %d", resp.StatusCode)
	}
	if !sw.NoOp {
		t.Fatalf("swap response not marked no-op: %+v", sw)
	}
	if got, _ := s.Network(""); got != nw {
		t.Fatal("no-op swap replaced the network")
	}
	st := s.Stats()
	if st.SwapNoops != 1 || st.Swaps != 0 {
		t.Fatalf("noops=%d swaps=%d, want 1/0", st.SwapNoops, st.Swaps)
	}

	// A genuinely different snapshot still installs.
	path2 := filepath.Join(t.TempDir(), "new.girgb")
	writeSnapshot(t, path2, 300, 29)
	resp2, sw2, _ := postSwap(t, ts.URL, SwapRequest{Path: path2})
	if resp2.StatusCode != http.StatusOK || sw2.NoOp {
		t.Fatalf("real swap: status %d noop %v", resp2.StatusCode, sw2.NoOp)
	}
	if s.Stats().Swaps != 1 {
		t.Fatal("real swap not counted")
	}
}

// TestSwapRefusesMutableSlot: /admin/swap cannot clobber the slot a
// mutation log drives.
func TestSwapRefusesMutableSlot(t *testing.T) {
	_, _, ts := liveServer(t, 300, 18, mutate.Config{})
	path := filepath.Join(t.TempDir(), "snap.girgb")
	writeSnapshot(t, path, 300, 19)
	resp, _, bad := postSwap(t, ts.URL, SwapRequest{Path: path})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("swap into mutable slot: status %d, want 409", resp.StatusCode)
	}
	if bad.Error == "" {
		t.Fatal("409 with empty error body")
	}
}

// TestMutateJournaledBeforeAck: a batch acknowledged over HTTP is already
// durable — reopening the log directory replays it to the same fingerprint
// without the server in the picture.
func TestMutateJournaledBeforeAck(t *testing.T) {
	s := New(Config{})
	nw := testNetwork(t, 300, 20)
	dir := t.TempDir()
	log, err := mutate.Open(dir, nw.Graph, mutate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableMutation(log, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _, _ := postMutate(t, ts.URL, MutateRequest{Ops: []mutate.Op{
		{Op: mutate.OpRemoveVertex, V: 3},
		{Op: mutate.OpAddEdge, U: 10, V: 20},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
	want := log.Fingerprint()
	// Abandon without Close: the ack already implies durability.
	replayed, err := mutate.Open(dir, nw.Graph, mutate.Config{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if got := replayed.Fingerprint(); got != want {
		t.Fatalf("replayed fingerprint %016x != acknowledged %016x", got, want)
	}
	log.Close()
}

// TestLivePublishInJournalOrder: eight writers commit at once, half over
// /admin/mutate and half straight into the log, and the served slot follows
// the log's commits in journal order with nobody publishing by hand. Without
// compaction a reader never sees the served epoch go down, and once quiet
// the slot serves the log's overlay itself; with compaction, once quiet it
// serves the log's base, and every fold was swapped in exactly once.
func TestLivePublishInJournalOrder(t *testing.T) {
	const writers, perWriter = 8, 20
	write := func(t *testing.T, log *mutate.Log, url string) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					ops := []mutate.Op{{Op: mutate.OpAddVertex, Pos: []float64{float64(w) / writers, float64(i) / perWriter}, W: 2}}
					if w%2 == 0 {
						if _, err := log.Apply(ops); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					body, _ := json.Marshal(MutateRequest{Ops: ops})
					resp, err := http.Post(url+"/admin/mutate", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("mutate: status %d", resp.StatusCode)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	t.Run("overlay", func(t *testing.T) {
		s, log, ts := liveServer(t, 300, 31, mutate.Config{})
		served, _ := s.Network("")
		done := make(chan struct{})
		readerErr := make(chan error, 1)
		go func() {
			var last uint64
			for {
				select {
				case <-done:
					readerErr <- nil
					return
				default:
				}
				ep := served.LiveOverlay().Epoch()
				if ep < last {
					readerErr <- fmt.Errorf("served epoch went from %d down to %d", last, ep)
					return
				}
				last = ep
			}
		}()
		write(t, log, ts.URL)
		close(done)
		if err := <-readerErr; err != nil {
			t.Fatal(err)
		}
		if nw, _ := s.Network(""); nw != served {
			t.Fatal("the slot's network was replaced without a compaction")
		}
		if got, want := served.LiveOverlay(), log.Overlay(); got != want {
			t.Fatalf("served overlay at epoch %d, the log's at %d", got.Epoch(), want.Epoch())
		}
	})

	t.Run("compaction", func(t *testing.T) {
		s, log, ts := liveServer(t, 300, 32, mutate.Config{CompactAt: 8})
		write(t, log, ts.URL)
		log.Close() // waits for the compaction in flight
		st := log.Stats()
		if st.Compactions == 0 {
			t.Fatal("no compaction ran")
		}
		nw, _ := s.Network("")
		if nw.Graph != log.Base() || nw.LiveOverlay() != log.Overlay() {
			t.Fatalf("slot serves base %016x at epoch %d, the log is at %016x epoch %d",
				nw.Graph.Fingerprint(), nw.LiveOverlay().Epoch(), log.Base().Fingerprint(), log.Overlay().Epoch())
		}
		if got := s.Stats().CompactSwaps; got != int64(st.Compactions) {
			t.Fatalf("%d compacted snapshots swapped in, the log committed %d compactions", got, st.Compactions)
		}
	})
}
