package mutate

import (
	"bytes"
	"fmt"
	"time"
)

// Journal-segment shipping: the replication layer moves mutation batches
// between replicas of the same log as ranges of canonically encoded batch
// payloads — the exact bytes the write-ahead journal holds. Export reads a
// range out of the local journal; Import replays a received range through
// the same validate→journal→publish pipeline Apply uses, byte for byte.
// Because the encoding is canonical and replay is deterministic, a replica
// that has imported every batch of the primary's generation is bit-identical
// to it: same journal records, same overlay epoch, same live fingerprint.

// Segment is a contiguous range of journaled batches: Batches[i] is the
// canonical encoding of batch From+i of the given generation over the given
// base. The coordinates bind the payloads to one exact history — an import
// into a log with a different base fingerprint or generation is refused
// before any byte is applied.
type Segment struct {
	BaseFP     string   `json:"base_fingerprint"`
	Generation int      `json:"generation"`
	From       int      `json:"from"`
	Batches    [][]byte `json:"batches,omitempty"`
}

// Position is a log's replication coordinate, compared across replicas by
// anti-entropy: two replicas with equal Position hold bit-identical live
// graphs. Seq always equals Epoch (each applied batch advances both by
// one); both are kept because Seq is the journal-record coordinate and
// Epoch the overlay coordinate gossip already speaks.
type Position struct {
	BaseFP     string `json:"base_fingerprint"`
	Generation int    `json:"generation"`
	Seq        int    `json:"seq"`
	Epoch      uint64 `json:"epoch"`
	LiveFP     string `json:"live_fp,omitempty"`
}

// SyncError reports a refused export or import: the two logs disagree about
// where they are (gap) or what history they are on (base, generation, or a
// divergent batch). The serving layer maps it to 409; anti-entropy treats
// it as "re-resolve positions and retry", never as data to force-apply.
type SyncError struct {
	Field string // "base", "generation", "gap", "batch"
	Want  string
	Got   string
}

func (e *SyncError) Error() string {
	return fmt.Sprintf("mutate: segment %s mismatch: want %s, got %s", e.Field, e.Want, e.Got)
}

// maxSegmentBatches bounds one Export answer so a far-behind replica pulls
// in paced rounds instead of one unbounded response.
const maxSegmentBatches = 512

// Head returns the log's journal coordinates — Position without the live
// fingerprint — in O(1): what shipping and anti-entropy steer by.
func (l *Log) Head() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headLocked()
}

func (l *Log) headLocked() Position {
	return Position{
		BaseFP:     fpString(l.base.Fingerprint()),
		Generation: l.gen,
		Seq:        l.seq,
		Epoch:      l.ov.Epoch(),
	}
}

// Position returns the log's current replication coordinate. The live
// fingerprint is an O(n+m) digest of the overlay (memoized per overlay): the
// overlay is captured under the lock and digested after it is released, so
// applies never wait for a digest.
func (l *Log) Position() Position {
	l.mu.Lock()
	pos, ov := l.headLocked(), l.ov
	l.mu.Unlock()
	pos.LiveFP = fpString(l.digest(ov))
	return pos
}

// Advertise hands publish the log's Position, live fingerprint included, from
// a goroutine of the log's own, so a caller on an acknowledgement path pays
// O(1). Latest wins: at most one digest is in flight per log, a request made
// meanwhile is served after it from the overlay published by then — the
// epochs in between are never digested — and every Position handed out is
// that of one overlay. The digester is background work: after a digest it
// idles for nine times as long, so a write stream costs a tenth of one core
// in digests whatever its rate. Close cuts the idling short and waits for
// the digest in flight.
func (l *Log) Advertise(publish func(Position)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.advertise = publish
	if l.advertising {
		return
	}
	l.advertising = true
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			l.mu.Lock()
			publish := l.advertise
			l.advertise = nil
			if publish == nil {
				l.advertising = false
				l.mu.Unlock()
				return
			}
			l.mu.Unlock()
			start := time.Now()
			publish(l.Position())
			select {
			case <-time.After(9 * time.Since(start)):
			case <-l.done:
			}
		}
	}()
}

// Export copies the journaled batch payloads of the current generation
// starting at seq from, up to max batches (0 or negative = the
// maxSegmentBatches cap). The caller's (baseFP, generation) must match the
// log's — a mismatch is a *SyncError, telling the puller its history
// diverged (e.g. the exporter compacted) rather than handing it batches
// that would not apply. An up-to-date puller gets an empty segment.
func (l *Log) Export(baseFP string, generation, from, max int) (Segment, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Segment{}, fmt.Errorf("mutate: log closed")
	}
	if got := fpString(l.base.Fingerprint()); baseFP != got {
		return Segment{}, &SyncError{Field: "base", Want: baseFP, Got: got}
	}
	if generation != l.gen {
		return Segment{}, &SyncError{Field: "generation", Want: fmt.Sprint(generation), Got: fmt.Sprint(l.gen)}
	}
	if from < 0 {
		return Segment{}, fmt.Errorf("mutate: segment from %d out of range", from)
	}
	if max <= 0 || max > maxSegmentBatches {
		max = maxSegmentBatches
	}
	seg := Segment{BaseFP: baseFP, Generation: l.gen, From: from}
	for seq := from; seq < l.seq && len(seg.Batches) < max; seq++ {
		payload, ok := l.journal.Get(batchKey(seq))
		if !ok {
			return Segment{}, fmt.Errorf("mutate: batch %d missing from generation %d", seq, l.gen)
		}
		seg.Batches = append(seg.Batches, payload)
	}
	return seg, nil
}

// Import applies a shipped segment: every batch the log does not already
// hold is decoded, validated against the live overlay, journaled (fsynced)
// and published — the same all-or-nothing pipeline Apply runs, preserving
// the received bytes so the journals of primary and replica stay
// bit-identical. Batches below the log's seq are verified byte-equal
// against the local journal and skipped (idempotent re-ship); a segment
// starting past the log's seq is a gap and refused with a *SyncError whose
// Got carries the seq to re-pull from. A negative From or a batch that fails
// to decode is a *CorruptError; one that decodes but does not apply means the histories
// diverged and is a *SyncError — in both cases nothing past the failing
// batch is applied.
func (l *Log) Import(seg Segment) (applied int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("mutate: log closed")
	}
	if got := fpString(l.base.Fingerprint()); seg.BaseFP != got {
		return 0, &SyncError{Field: "base", Want: seg.BaseFP, Got: got}
	}
	if seg.Generation != l.gen {
		return 0, &SyncError{Field: "generation", Want: fmt.Sprint(seg.Generation), Got: fmt.Sprint(l.gen)}
	}
	if seg.From < 0 {
		return 0, corruptf(0, "segment from %d out of range", seg.From)
	}
	if seg.From > l.seq {
		return 0, &SyncError{Field: "gap", Want: fmt.Sprint(seg.From), Got: fmt.Sprint(l.seq)}
	}
	for i, payload := range seg.Batches {
		seq := seg.From + i
		if seq < l.seq {
			if held, ok := l.journal.Get(batchKey(seq)); !ok || !bytes.Equal(held, payload) {
				return applied, &SyncError{Field: "batch", Want: fmt.Sprintf("batch %d as journaled here", seq), Got: "divergent payload"}
			}
			continue
		}
		ops, err := DecodeBatch(payload)
		if err != nil {
			return applied, fmt.Errorf("mutate: imported batch %d: %w", seq, err)
		}
		e := l.ov.Edit()
		if _, err := applyOps(e, ops); err != nil {
			// The batch was valid on the peer that journaled it; failing to
			// apply here means the two logs do not share a history.
			return applied, &SyncError{Field: "batch", Want: fmt.Sprintf("batch %d to apply", seq), Got: err.Error()}
		}
		if err := l.journal.Put(batchKey(seq), payload); err != nil {
			return applied, fmt.Errorf("mutate: journal append: %w", err)
		}
		l.ov = e.Finish()
		l.seq++
		l.batches++
		l.opsApplied += uint64(len(ops))
		applied++
		if l.cfg.OnApply != nil {
			l.cfg.OnApply(l.ov)
		}
	}
	return applied, nil
}
