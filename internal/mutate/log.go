package mutate

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/atomicio"
	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/graphio"
)

// Config tunes a mutation Log.
type Config struct {
	// Resume permits opening a directory that already holds a mutation log
	// (the journal is replayed). Without it, an existing log refuses to
	// open, so a restart never appends to a log it did not mean to resume.
	Resume bool
	// CompactAt folds the overlay into a fresh snapshot once its DeltaSize
	// (dirty + added + tombstoned vertices) reaches this threshold; 0
	// disables automatic compaction (Compact can still be called directly).
	CompactAt int
	// SyncEvery is passed to the journal: fsync after every k batches
	// (default 1 — every acknowledged batch is durable).
	SyncEvery int
	// OnApply, if set, is called with each newly published overlay, under
	// the log's lock — it must publish-and-return, not call back into the
	// Log.
	OnApply func(ov *graph.Overlay)
	// OnCompact, if set, is called after a compaction commits with the new
	// base graph, the rebuilt (tail-replayed) overlay over it, and the path
	// of the snapshot written — again under the lock, no reentry.
	OnCompact func(base *graph.Graph, ov *graph.Overlay, snapshot string)
	// Logger receives replay/compaction progress; nil discards.
	Logger *slog.Logger
}

// maxBatchOps bounds one Apply call; bigger batches gain nothing (the lock
// is held across the batch anyway) and bloat single journal records.
const maxBatchOps = 1 << 16

// current is the persisted commit pointer of a mutation log directory:
// which journal generation is live and which snapshot (if any) supersedes
// the original base graph. It is flipped atomically (write-temp, fsync,
// rename), so a crash anywhere during compaction resolves to exactly one
// generation on restart.
type current struct {
	Version    int    `json:"version"`
	Generation int    `json:"generation"`
	Snapshot   string `json:"snapshot,omitempty"` // relative to the log dir; empty for generation 1
	BaseFP     string `json:"base_fingerprint"`
}

const (
	currentName    = "CURRENT"
	currentVersion = 1
)

// Log is the journaled mutation pipeline: Apply validates a batch against
// the live overlay, appends its canonical encoding to the generation's
// write-ahead journal (fsynced before the call returns), then publishes the
// next overlay epoch. Opening the same directory again replays the journal
// over the same base to a bit-identical live fingerprint. Safe for
// concurrent use; batches serialize.
type Log struct {
	dir string
	cfg Config

	mu      sync.Mutex
	closed  bool
	base    *graph.Graph
	ov      *graph.Overlay
	gen     int
	seq     int // next batch sequence number in this generation
	journal *ckpt.Journal

	batches     uint64
	opsApplied  uint64
	rejected    uint64
	compactions uint64
	replayed    uint64

	// digest is Overlay.Fingerprint; a field so a test can hold one up.
	digest func(*graph.Overlay) uint64
	// advertise is the sink of the pending Advertise request (nil: none);
	// advertising is set while the digester goroutine runs.
	advertise   func(Position)
	advertising bool
	done        chan struct{} // closed by Close

	compacting atomic.Bool
	wg         sync.WaitGroup // background compactions and the digester; Close waits
}

// Applied reports a committed batch.
type Applied struct {
	// Generation and Seq locate the batch's journal record.
	Generation int
	Seq        int
	// Epoch is the overlay epoch the batch published.
	Epoch uint64
	// Assigned lists the vertex ids this batch's add-vertex ops created, in
	// op order.
	Assigned []int
}

// Stats is a point-in-time snapshot of the log's counters, for /readyz and
// /metrics.
type Stats struct {
	Generation  int
	Seq         int
	Batches     uint64
	Ops         uint64
	Rejected    uint64
	Compactions uint64
	Replayed    uint64
	Overlay     graph.OverlayStats
}

func genDirName(gen int) string { return fmt.Sprintf("gen-%06d", gen) }
func snapName(gen int) string   { return fmt.Sprintf("snap-gen-%06d.girgb", gen) }
func batchKey(seq int) string   { return fmt.Sprintf("b/%08d", seq) }
func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }
func journalKey(fp uint64, gen int) string {
	return fmt.Sprintf("mutlog/%s/%s", fpString(fp), genDirName(gen))
}

// Open opens (creating if necessary) the mutation log in dir over the given
// base graph and replays any journaled batches. A fresh directory starts
// generation 1 against base; a resumed directory whose CURRENT points at a
// compacted snapshot loads that snapshot instead — callers must route over
// Base()/Overlay() rather than the graph they passed in. Opening an
// existing log requires cfg.Resume, and generation-1 logs verify the
// caller's base fingerprint so a log is never replayed over the wrong
// graph.
func Open(dir string, base *graph.Graph, cfg Config) (*Log, error) {
	if base == nil {
		return nil, fmt.Errorf("mutate: nil base graph")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}
	l := &Log{dir: dir, cfg: cfg, base: base, digest: (*graph.Overlay).Fingerprint, done: make(chan struct{})}

	cpath := filepath.Join(dir, currentName)
	raw, err := os.ReadFile(cpath)
	switch {
	case err == nil:
		if !cfg.Resume {
			return nil, fmt.Errorf("mutate: %s already holds a mutation log; pass -resume to replay it or choose a fresh directory", dir)
		}
		cur, err := parseCurrent(cpath, raw)
		if err != nil {
			return nil, err
		}
		l.gen = cur.Generation
		if cur.Snapshot != "" {
			snap := filepath.Join(dir, cur.Snapshot)
			g, err := graphio.ReadFile(snap)
			if err != nil {
				return nil, fmt.Errorf("mutate: compacted snapshot %s: %w", snap, err)
			}
			l.base = g
		}
		if got := fpString(l.base.Fingerprint()); got != cur.BaseFP {
			return nil, fmt.Errorf("mutate: log %s belongs to base graph %s, this graph is %s", dir, cur.BaseFP, got)
		}
	case os.IsNotExist(err):
		l.gen = 1
		if err := writeCurrent(dir, current{
			Version:    currentVersion,
			Generation: 1,
			BaseFP:     fpString(base.Fingerprint()),
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("mutate: %w", err)
	}

	l.journal, err = ckpt.Open(
		filepath.Join(dir, genDirName(l.gen)),
		journalKey(l.base.Fingerprint(), l.gen),
		ckpt.Options{SyncEvery: cfg.SyncEvery},
	)
	if err != nil {
		return nil, err
	}
	if err := l.replay(); err != nil {
		l.journal.Close()
		return nil, err
	}
	l.sweepStale()
	if l.replayed > 0 {
		cfg.Logger.Info("mutation log replayed",
			"dir", dir, "generation", l.gen, "batches", l.replayed,
			"epoch", l.ov.Epoch(), "fingerprint", fpString(l.ov.Fingerprint()))
	}
	return l, nil
}

func parseCurrent(path string, raw []byte) (current, error) {
	var cur current
	if err := json.Unmarshal(raw, &cur); err != nil {
		return cur, fmt.Errorf("mutate: %s unreadable: %w", path, err)
	}
	if cur.Version != currentVersion {
		return cur, fmt.Errorf("mutate: %s has version %d, this build writes %d", path, cur.Version, currentVersion)
	}
	if cur.Generation < 1 {
		return cur, fmt.Errorf("mutate: %s has impossible generation %d", path, cur.Generation)
	}
	return cur, nil
}

func writeCurrent(dir string, cur current) error {
	return atomicio.WriteFile(filepath.Join(dir, currentName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(cur)
	})
}

// replay folds every journaled batch of the open generation back into the
// overlay, in sequence order. A batch that fails to decode or to apply
// fails the open: the journal's CRCs already screen bit-rot, so a failure
// here means the log and base graph disagree — refusing is safer than
// serving a silently different graph.
func (l *Log) replay() error {
	l.ov = graph.NewOverlay(l.base)
	for seq := 0; ; seq++ {
		payload, ok := l.journal.Get(batchKey(seq))
		if !ok {
			l.seq = seq
			return nil
		}
		ops, err := DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("mutate: generation %d batch %d: %w", l.gen, seq, err)
		}
		e := l.ov.Edit()
		if _, err := applyOps(e, ops); err != nil {
			return fmt.Errorf("mutate: generation %d batch %d does not apply: %w", l.gen, seq, err)
		}
		l.ov = e.Finish()
		l.replayed++
	}
}

// sweepStale removes generation directories and snapshots other than the
// live ones — leftovers of a crash between a compaction's commit point and
// its cleanup. Best-effort: failures only log.
func (l *Log) sweepStale() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	keepDir, keepSnap := genDirName(l.gen), snapName(l.gen)
	for _, ent := range entries {
		name := ent.Name()
		stale := (ent.IsDir() && len(name) > 4 && name[:4] == "gen-" && name != keepDir) ||
			(!ent.IsDir() && len(name) > 5 && name[:5] == "snap-" && name != keepSnap)
		if stale {
			if err := os.RemoveAll(filepath.Join(l.dir, name)); err != nil {
				l.cfg.Logger.Warn("mutation log: stale entry not removed", "entry", name, "err", err)
			}
		}
	}
}

// Base returns the graph the current generation's overlay is layered on.
// After a compaction this is the folded snapshot, not the graph Open was
// called with.
func (l *Log) Base() *graph.Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Overlay returns the currently published overlay.
func (l *Log) Overlay() *graph.Overlay {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ov
}

// Generation returns the live journal generation (1 until the first
// compaction).
func (l *Log) Generation() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Fingerprint returns the live graph's fingerprint — the quantity crash
// replay must reproduce bit for bit.
func (l *Log) Fingerprint() uint64 {
	return l.digest(l.Overlay())
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Generation:  l.gen,
		Seq:         l.seq,
		Batches:     l.batches,
		Ops:         l.opsApplied,
		Rejected:    l.rejected,
		Compactions: l.compactions,
		Replayed:    l.replayed,
		Overlay:     l.ov.Stats(),
	}
}

// Apply validates, journals and publishes one batch, in that order: a batch
// is acknowledged only after its canonical encoding is in the write-ahead
// journal (fsynced under the default SyncEvery), and it becomes visible to
// routing only after that — all-or-nothing. Validation failures return an
// *OpError (the serving layer's 422) with the live graph untouched.
func (l *Log) Apply(ops []Op) (Applied, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Applied{}, fmt.Errorf("mutate: log closed")
	}
	if len(ops) == 0 {
		l.rejected++
		return Applied{}, &OpError{Index: 0, Err: fmt.Errorf("empty batch")}
	}
	if len(ops) > maxBatchOps {
		l.rejected++
		return Applied{}, &OpError{Index: 0, Err: fmt.Errorf("batch of %d ops exceeds the %d cap", len(ops), maxBatchOps)}
	}
	e := l.ov.Edit()
	assigned, err := applyOps(e, ops)
	if err != nil {
		l.rejected++
		return Applied{}, err // edit discarded; published overlay untouched
	}
	payload, err := EncodeBatch(ops)
	if err != nil {
		// applyOps validated every op, so an encoding failure is a bug, not
		// bad input; surface it without publishing.
		l.rejected++
		return Applied{}, err
	}
	if err := l.journal.Put(batchKey(l.seq), payload); err != nil {
		return Applied{}, fmt.Errorf("mutate: journal append: %w", err)
	}
	l.ov = e.Finish()
	res := Applied{Generation: l.gen, Seq: l.seq, Epoch: l.ov.Epoch(), Assigned: assigned}
	l.seq++
	l.batches++
	l.opsApplied += uint64(len(ops))
	if l.cfg.OnApply != nil {
		l.cfg.OnApply(l.ov)
	}
	if l.cfg.CompactAt > 0 && l.ov.DeltaSize() >= l.cfg.CompactAt && l.compacting.CompareAndSwap(false, true) {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer l.compacting.Store(false)
			if err := l.compact(); err != nil {
				l.cfg.Logger.Error("mutation log: background compaction failed", "err", err)
			}
		}()
	}
	return res, nil
}

// Compact folds the current overlay into a fresh snapshot and starts the
// next journal generation:
//
//  1. capture the published overlay (immutable — applies continue),
//  2. materialize it, write snap-gen-(g+1).girgb atomically, read it back
//     and verify the fingerprint survived the disk round trip,
//  3. under the lock: journal the batches applied since the capture into
//     the new generation (renumbered from 0), rebuild the overlay by
//     replaying that tail over the new base, flip CURRENT — the commit
//     point — then retire the old generation and publish.
//
// A crash before the CURRENT flip leaves the old generation fully live (the
// half-written next generation is swept on the next open); a crash after it
// resumes from the new one. Vertex ids are stable across compaction because
// Materialize preserves the id space — a removed vertex survives as an
// isolated vertex, its tombstone bit folded into an empty adjacency.
func (l *Log) Compact() error {
	// One compaction at a time: a second caller (or the background trigger)
	// would race this one on the next generation's directory.
	if !l.compacting.CompareAndSwap(false, true) {
		return fmt.Errorf("mutate: compaction already in progress")
	}
	defer l.compacting.Store(false)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("mutate: log closed")
	}
	l.wg.Add(1)
	l.mu.Unlock()
	defer l.wg.Done()
	return l.compact()
}

// compact runs one compaction. Its caller has registered it in l.wg under
// the lock while the log was open, so Close waits for it instead of closing
// the journal under it: a compaction that an acknowledged Apply triggered
// always runs to its commit.
func (l *Log) compact() error {
	// Phase 1: capture.
	l.mu.Lock()
	ov, upTo, oldGen := l.ov, l.seq, l.gen
	l.mu.Unlock()

	// Phase 2: fold and persist, off-lock.
	newBase, err := ov.Materialize()
	if err != nil {
		return fmt.Errorf("mutate: compact: %w", err)
	}
	newGen := oldGen + 1
	snap := snapName(newGen)
	snapPath := filepath.Join(l.dir, snap)
	if err := atomicio.WriteFile(snapPath, func(w io.Writer) error {
		return graphio.WriteBinary(w, newBase)
	}); err != nil {
		return fmt.Errorf("mutate: compact: %w", err)
	}
	reread, err := graphio.ReadFile(snapPath)
	if err != nil {
		os.Remove(snapPath)
		return fmt.Errorf("mutate: compact: snapshot does not read back: %w", err)
	}
	if reread.Fingerprint() != newBase.Fingerprint() {
		os.Remove(snapPath)
		return fmt.Errorf("mutate: compact: snapshot fingerprint %s != folded graph %s",
			fpString(reread.Fingerprint()), fpString(newBase.Fingerprint()))
	}

	// Phase 3: commit.
	l.mu.Lock()
	defer l.mu.Unlock()
	abort := func(nj *ckpt.Journal, err error) error {
		if nj != nil {
			nj.Close()
		}
		os.RemoveAll(filepath.Join(l.dir, genDirName(newGen)))
		os.Remove(snapPath)
		return err
	}
	gdir := filepath.Join(l.dir, genDirName(newGen))
	os.RemoveAll(gdir) // leftovers of an earlier failed compaction
	nj, err := ckpt.Open(gdir, journalKey(newBase.Fingerprint(), newGen), ckpt.Options{SyncEvery: l.cfg.SyncEvery})
	if err != nil {
		return abort(nil, fmt.Errorf("mutate: compact: %w", err))
	}
	// Batches applied while phase 2 ran carry over into the new generation,
	// renumbered from 0, and replay over the new base to rebuild the live
	// overlay. Replay cannot diverge: the folded base holds exactly the live
	// edge set the tail was validated against, with stable vertex ids.
	nov := graph.NewOverlay(newBase)
	for seq := upTo; seq < l.seq; seq++ {
		payload, ok := l.journal.Get(batchKey(seq))
		if !ok {
			return abort(nj, fmt.Errorf("mutate: compact: batch %d missing from generation %d", seq, oldGen))
		}
		if err := nj.Put(batchKey(seq-upTo), payload); err != nil {
			return abort(nj, fmt.Errorf("mutate: compact: %w", err))
		}
		ops, err := DecodeBatch(payload)
		if err != nil {
			return abort(nj, fmt.Errorf("mutate: compact: batch %d: %w", seq, err))
		}
		e := nov.Edit()
		if _, err := applyOps(e, ops); err != nil {
			return abort(nj, fmt.Errorf("mutate: compact: batch %d does not replay over the folded base: %w", seq, err))
		}
		nov = e.Finish()
	}
	if err := nj.Sync(); err != nil {
		return abort(nj, fmt.Errorf("mutate: compact: %w", err))
	}
	if err := writeCurrent(l.dir, current{
		Version:    currentVersion,
		Generation: newGen,
		Snapshot:   snap,
		BaseFP:     fpString(newBase.Fingerprint()),
	}); err != nil {
		return abort(nj, err)
	}
	// Committed. Retirement of the old generation is best-effort — sweepStale
	// finishes the job on the next open if anything below fails.
	l.journal.Close()
	os.RemoveAll(filepath.Join(l.dir, genDirName(oldGen)))
	os.Remove(filepath.Join(l.dir, snapName(oldGen)))
	tail := l.seq - upTo
	l.base, l.ov, l.gen, l.journal, l.seq = newBase, nov, newGen, nj, tail
	l.compactions++
	l.cfg.Logger.Info("mutation log compacted",
		"generation", newGen, "snapshot", snap, "tail_batches", tail,
		"fingerprint", fpString(newBase.Fingerprint()))
	if l.cfg.OnCompact != nil {
		l.cfg.OnCompact(newBase, nov, snapPath)
	}
	return nil
}

// Close stops new applies, compactions and advertisements, waits for the
// compaction and the digest in flight to finish, and then releases the
// journal. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.done)
	l.mu.Unlock()
	l.wg.Wait()
	l.mu.Lock()
	j := l.journal
	l.mu.Unlock()
	return j.Close()
}
