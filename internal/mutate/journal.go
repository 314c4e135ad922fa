package mutate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/atomicio"
	"repro/internal/frame"
)

// A generation's write-ahead journal is a directory of two files:
//
//	MANIFEST     json {version, key}, written atomically; the key binds the
//	             journal to one base snapshot and generation, so replaying
//	             it over anything else fails loudly instead of mixing graphs
//	journal.wal  internal/frame records of two parts: the key b/%08d (the
//	             batch's sequence number) and the batch's canonical encoding
//
// Every record is written with one Write and fsynced before put returns, so
// a SIGKILL loses at most the record being written. Opening replays the
// file, truncates a torn tail (the half-record a crash left behind, which
// may read as zeros and so as a short record failing its checksum) and
// refuses rot: a damaged record with an intact record after it cannot be
// what a crash left, because a crash tears only the last append.

const (
	manifestName    = "MANIFEST"
	journalName     = "journal.wal"
	manifestVersion = 1

	// maxRecord caps what a record's length words may claim; anything
	// larger is corruption, not data.
	maxRecord = 1 << 28
)

// manifest is the persisted identity of a journal directory.
type manifest struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
}

// journal is one generation's open journal. The Log serializes every call.
type journal struct {
	path     string
	f        *os.File
	payloads [][]byte // payloads[seq]: the last record journaled for batch seq
	rec      []byte   // put's record buffer
}

// openJournal opens (creating if necessary) the journal directory and
// replays its journal. key names what the records are written against (the
// base fingerprint and generation); opening an existing directory with a
// different key fails.
func openJournal(dir, key string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("mutate: manifest %s unreadable: %w", mpath, err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("mutate: manifest %s has version %d, this build writes %d", mpath, m.Version, manifestVersion)
		}
		if m.Key != key {
			return nil, fmt.Errorf("mutate: journal %s is bound to key %q, not %q", dir, m.Key, key)
		}
	case os.IsNotExist(err):
		if err := atomicio.WriteFile(mpath, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(manifest{Version: manifestVersion, Key: key})
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("mutate: %w", err)
	}

	j := &journal{path: filepath.Join(dir, journalName)}
	if j.f, err = os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}
	if err := j.replay(); err != nil {
		j.f.Close()
		return nil, err
	}
	return j, nil
}

// replay indexes every intact record and truncates a torn tail. The
// payloads are views into the one buffer the file is read into.
func (j *journal) replay() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(j.f, data); err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	var parts [2][]byte
	for off := 0; off < len(data); {
		n, err := frame.Decode(data[off:], parts[:], maxRecord)
		if err != nil {
			if next := nextRecord(data, off); next >= 0 {
				return &CorruptError{Path: j.path, Offset: int64(off),
					Reason: fmt.Sprintf("damaged record (%v) with an intact record at offset %d after it", err, next)}
			}
			if err := j.f.Truncate(int64(off)); err != nil {
				return fmt.Errorf("mutate: truncating torn tail: %w", err)
			}
			if err := j.f.Sync(); err != nil {
				return fmt.Errorf("mutate: %w", err)
			}
			return nil
		}
		seq, ok := parseBatchKey(parts[0])
		if !ok || seq > len(j.payloads) {
			return &CorruptError{Path: j.path, Offset: int64(off),
				Reason: fmt.Sprintf("record key %q out of sequence (%d batches before it)", parts[0], len(j.payloads))}
		}
		j.index(seq, parts[1])
		off += n
	}
	return nil
}

// nextRecord returns the offset of the first whole record with a valid
// checksum that starts after off, or -1 if there is none.
func nextRecord(data []byte, off int) int {
	var parts [2][]byte
	for i := off + 1; i < len(data); i++ {
		if _, err := frame.Decode(data[i:], parts[:], maxRecord); err == nil {
			return i
		}
	}
	return -1
}

// parseBatchKey inverts batchKey.
func parseBatchKey(key []byte) (int, bool) {
	if !bytes.HasPrefix(key, []byte("b/")) {
		return 0, false
	}
	seq, err := strconv.Atoi(string(key[2:]))
	return seq, err == nil && batchKey(seq) == string(key)
}

// get returns the journaled payload of batch seq, if present. The returned
// slice must not be modified.
func (j *journal) get(seq int) ([]byte, bool) {
	if seq < 0 || seq >= len(j.payloads) {
		return nil, false
	}
	return j.payloads[seq], true
}

// put appends the record of batch seq and fsyncs it, making the batch
// durable. seq is the next batch or, superseding it, one already journaled.
func (j *journal) put(seq int, payload []byte) error {
	key := batchKey(seq)
	switch {
	case seq < 0 || seq > len(j.payloads):
		return fmt.Errorf("mutate: batch %d out of sequence (%d journaled)", seq, len(j.payloads))
	case len(key)+len(payload) > maxRecord:
		return fmt.Errorf("mutate: batch of %d bytes exceeds the %d-byte record cap", len(payload), maxRecord)
	}
	j.rec = frame.Append(j.rec[:0], []byte(key), payload)
	if _, err := j.f.Write(j.rec); err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	j.index(seq, bytes.Clone(payload))
	return nil
}

// index makes payload batch seq's, appending it or superseding the earlier
// record of seq.
func (j *journal) index(seq int, payload []byte) {
	if seq == len(j.payloads) {
		j.payloads = append(j.payloads, payload)
	} else {
		j.payloads[seq] = payload
	}
}

// close closes the journal file; every record is already synced.
func (j *journal) close() error { return j.f.Close() }
