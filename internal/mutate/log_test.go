package mutate

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// tf maps (seed, i) to a deterministic uniform in [0, 1) — the same
// splitmix construction the graph package's tests use, so fixtures need no
// RNG state.
func tf(seed, i uint64) float64 {
	x := seed ^ (i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * 0x1p-53
}

// testGraph builds a deterministic geometric base graph with a few hash
// edges per vertex.
func testGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	space, err := torus.NewSpace(2)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]float64, 2*n)
	weights := make([]float64, n)
	for v := 0; v < n; v++ {
		coords[2*v] = tf(seed, uint64(3*v))
		coords[2*v+1] = tf(seed, uint64(3*v+1))
		weights[v] = 1 + 3*tf(seed, uint64(3*v+2))
	}
	pos, err := torus.NewPositionsRaw(space, coords)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(n, pos, weights, float64(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		for k := 0; k < 3; k++ {
			u := int(tf(seed+7, uint64(3*v+k)) * float64(n))
			if u != v && u < n {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Finish()
}

// genBatches simulates a churn stream on a shadow overlay and records the
// ops, so the same [][]Op can be replayed into any number of logs over the
// same base and must land on the same graph.
func genBatches(t testing.TB, g *graph.Graph, nBatches int, seed uint64) [][]Op {
	t.Helper()
	o := graph.NewOverlay(g)
	rng := xrand.New(seed)
	dim := g.Space().Dim()
	var batches [][]Op
	for b := 0; b < nBatches; b++ {
		e := o.Edit()
		var ops []Op
		// One join with a few edges.
		pos := make([]float64, dim)
		for i := range pos {
			pos[i] = rng.Float64()
		}
		w := g.WMin() * (1 + rng.Float64())
		nv, err := e.AddVertex(pos, w)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, Op{Op: OpAddVertex, Pos: pos, W: w})
		for k := 0; k < 4; k++ {
			u := rng.IntN(nv)
			if u != nv && !e.Tombstoned(u) && !e.HasEdge(nv, u) {
				if err := e.AddEdge(nv, u); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, Op{Op: OpAddEdge, U: nv, V: u})
			}
		}
		// Occasionally a leave.
		if b%3 == 1 {
			for tries := 0; tries < 20; tries++ {
				v := rng.IntN(g.N())
				if !e.Tombstoned(v) {
					if err := e.RemoveVertex(v); err != nil {
						t.Fatal(err)
					}
					ops = append(ops, Op{Op: OpRemoveVertex, V: v})
					break
				}
			}
		}
		// A few edge flips among base ids.
		for k := 0; k < 4; k++ {
			u, v := rng.IntN(g.N()), rng.IntN(g.N())
			if u == v || e.Tombstoned(u) || e.Tombstoned(v) {
				continue
			}
			if e.HasEdge(u, v) {
				if err := e.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, Op{Op: OpRemoveEdge, U: u, V: v})
			} else {
				if err := e.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, Op{Op: OpAddEdge, U: u, V: v})
			}
		}
		o = e.Finish()
		batches = append(batches, ops)
	}
	return batches
}

func mustOpen(t *testing.T, dir string, g *graph.Graph, cfg Config) *Log {
	t.Helper()
	l, err := Open(dir, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func applyAll(t *testing.T, l *Log, batches [][]Op) {
	t.Helper()
	for i, ops := range batches {
		if _, err := l.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := testGraph(t, 200, 1)
	for _, ops := range genBatches(t, g, 25, 2) {
		payload, err := EncodeBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(ops) {
			t.Fatalf("decoded %d ops, want %d", len(back), len(ops))
		}
		re, err := EncodeBatch(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(payload) {
			t.Fatal("re-encoding is not byte-identical")
		}
	}
}

func TestDecodeCorruptClassified(t *testing.T) {
	g := testGraph(t, 50, 3)
	valid, err := EncodeBatch(genBatches(t, g, 3, 4)[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short":          {1, 0, 0},
		"bad-version":    append([]byte{9}, valid[1:]...),
		"huge-count":     {1, 0xff, 0xff, 0xff, 0xff, kindAddEdge, 0, 0, 0, 0, 1, 0, 0, 0},
		"truncated":      valid[:len(valid)-3],
		"trailing":       append(append([]byte{}, valid...), 0xaa),
		"bad-kind":       {1, 1, 0, 0, 0, 99, 0, 0, 0, 0},
		"zero-dim":       {1, 1, 0, 0, 0, kindAddVertex, 0},
		"huge-dim":       {1, 1, 0, 0, 0, kindAddVertex, 200, 0, 0, 0, 0, 0, 0, 0, 0},
		"huge-vertex-id": {1, 1, 0, 0, 0, kindRemoveVertex, 0xff, 0xff, 0xff, 0xff},
	}
	for name, payload := range cases {
		_, err := DecodeBatch(payload)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want *CorruptError", name, err)
		}
	}
}

func TestApplyValidationRejects(t *testing.T) {
	g := testGraph(t, 100, 5)
	dir := t.TempDir()
	l := mustOpen(t, dir, g, Config{})
	good := genBatches(t, g, 2, 6)
	applyAll(t, l, good[:1])
	fpBefore := l.Fingerprint()
	epochBefore := l.Overlay().Epoch()

	bad := [][]Op{
		{},                                 // empty batch
		{{Op: "teleport", U: 1, V: 2}},     // unknown kind
		{{Op: OpAddEdge, U: 0, V: 10_000}}, // out of range
		{{Op: OpAddEdge, U: 3, V: 3}},      // self-loop
		{{Op: OpRemoveVertex, V: -1}},      // negative id
		{{Op: OpAddVertex, Pos: []float64{0.5}, W: 2}},                 // wrong dim
		{{Op: OpAddVertex, Pos: []float64{0.5, 0.5}, W: 0.001}},        // below wmin
		{{Op: OpAddEdge, U: 0, V: 1}, {Op: OpRemoveVertex, V: 99_999}}, // second op invalid: whole batch must roll back
	}
	for i, ops := range bad {
		_, err := l.Apply(ops)
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Fatalf("bad batch %d: got %v, want *OpError", i, err)
		}
	}
	if l.Fingerprint() != fpBefore || l.Overlay().Epoch() != epochBefore {
		t.Fatal("rejected batches mutated the live graph")
	}
	if st := l.Stats(); st.Rejected != uint64(len(bad)) || st.Batches != 1 {
		t.Fatalf("stats after rejects: %+v", st)
	}
}

func TestOpenRequiresResume(t *testing.T) {
	g := testGraph(t, 50, 7)
	dir := t.TempDir()
	l := mustOpen(t, dir, g, Config{})
	applyAll(t, l, genBatches(t, g, 2, 8))
	l.Close()
	if _, err := Open(dir, g, Config{}); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopen without Resume: %v", err)
	}
	g2 := testGraph(t, 50, 8) // different base
	if _, err := Open(dir, g2, Config{Resume: true}); err == nil || !strings.Contains(err.Error(), "base graph") {
		t.Fatalf("reopen over wrong base: %v", err)
	}
}

// TestCrashReplayDeterminism is the tentpole acceptance: apply N batches;
// at every tested batch boundary k abandon the log without Close (the
// in-process stand-in for SIGKILL — every acknowledged batch is already
// fsynced), re-open with Resume, apply the remaining batches, and demand a
// live fingerprint bit-identical to a reference log that never crashed.
func TestCrashReplayDeterminism(t *testing.T) {
	g := testGraph(t, 300, 9)
	const nBatches = 20
	batches := genBatches(t, g, nBatches, 10)

	ref := mustOpen(t, t.TempDir(), g, Config{})
	applyAll(t, ref, batches)
	want := ref.Fingerprint()
	wantEpoch := ref.Overlay().Epoch()

	for _, k := range []int{0, 1, 7, nBatches - 1, nBatches} {
		dir := t.TempDir()
		crashed := mustOpen(t, dir, g, Config{})
		applyAll(t, crashed, batches[:k])
		// No Close: the open file handle leaks like a killed process's would.
		resumed, err := Open(dir, g, Config{Resume: true})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got := resumed.Stats().Replayed; got != uint64(k) {
			t.Fatalf("k=%d: replayed %d batches, want %d", k, got, k)
		}
		applyAll(t, resumed, batches[k:])
		if got := resumed.Fingerprint(); got != want {
			t.Fatalf("k=%d: fingerprint %016x, want %016x", k, got, want)
		}
		if got := resumed.Overlay().Epoch(); got != wantEpoch {
			t.Fatalf("k=%d: epoch %d, want %d", k, got, wantEpoch)
		}
		resumed.Close()
	}
}

// TestTornTailTruncated mirrors the journal contract at this layer: a crash
// mid-append leaves a torn final record, and resume must serve the longest
// intact prefix rather than refuse or mis-apply.
func TestTornTailTruncated(t *testing.T) {
	g := testGraph(t, 200, 11)
	batches := genBatches(t, g, 6, 12)

	ref := mustOpen(t, t.TempDir(), g, Config{})
	applyAll(t, ref, batches[:5])
	want := ref.Fingerprint()

	dir := t.TempDir()
	l := mustOpen(t, dir, g, Config{})
	applyAll(t, l, batches)
	l.Close()
	jpath := filepath.Join(dir, genDirName(1), "journal.wal")
	st, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	resumed := mustOpen(t, dir, g, Config{Resume: true})
	if got := resumed.Stats().Replayed; got != 5 {
		t.Fatalf("replayed %d batches after torn tail, want 5", got)
	}
	if got := resumed.Fingerprint(); got != want {
		t.Fatalf("fingerprint %016x after torn tail, want %016x", got, want)
	}
}

func TestCompactionFoldsAndResumes(t *testing.T) {
	g := testGraph(t, 300, 13)
	batches := genBatches(t, g, 18, 14)
	dir := t.TempDir()
	l := mustOpen(t, dir, g, Config{})
	applyAll(t, l, batches[:12])
	fpLive := l.Fingerprint()
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if l.Generation() != 2 {
		t.Fatalf("generation %d after compaction, want 2", l.Generation())
	}
	if got := l.Fingerprint(); got != fpLive {
		t.Fatalf("compaction changed the live fingerprint: %016x != %016x", got, fpLive)
	}
	if got := l.Base().Fingerprint(); got != fpLive {
		t.Fatalf("folded base fingerprint %016x, want live %016x", got, fpLive)
	}
	if _, err := os.Stat(filepath.Join(dir, genDirName(1))); !os.IsNotExist(err) {
		t.Fatalf("old generation dir not retired: %v", err)
	}

	// Keep mutating in generation 2, then crash-resume: the snapshot, not
	// the original base, must anchor the replay.
	applyAll(t, l, batches[12:])
	want := l.Fingerprint()
	resumed, err := Open(dir, g, Config{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Generation() != 2 {
		t.Fatalf("resumed generation %d, want 2", resumed.Generation())
	}
	if got := resumed.Fingerprint(); got != want {
		t.Fatalf("resumed fingerprint %016x, want %016x", got, want)
	}
	// And the compacted graph must equal the straight-line reference.
	ref := mustOpen(t, t.TempDir(), g, Config{})
	applyAll(t, ref, batches)
	if got := ref.Fingerprint(); got != want {
		t.Fatalf("compacted lineage diverged from reference: %016x != %016x", want, got)
	}
}

func TestAutoCompaction(t *testing.T) {
	g := testGraph(t, 300, 15)
	batches := genBatches(t, g, 16, 16)
	dir := t.TempDir()
	l := mustOpen(t, dir, g, Config{CompactAt: 8})
	ref := mustOpen(t, t.TempDir(), g, Config{})
	applyAll(t, l, batches)
	applyAll(t, ref, batches)
	l.Close() // waits for any in-flight background compaction
	if st := l.Stats(); st.Compactions == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	if got, want := l.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("fingerprint %016x after auto-compaction, want %016x", got, want)
	}
}
