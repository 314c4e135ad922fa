// Package ckpt is the record layer of the mutation journal
// (internal/mutate): a write-ahead journal of (key, payload) records that a
// restarted daemon replays, so every acknowledged batch survives a crash.
//
// A journal directory holds two files:
//
//	MANIFEST     json {version, key}, written atomically; the key binds the
//	             journal to one base snapshot and generation, so replaying
//	             it over anything else fails loudly instead of mixing graphs
//	journal.wal  append-only records: u32 keyLen | u32 payloadLen | key |
//	             payload | u32 crc  (CRC32 over lengths + key + payload)
//
// Appends are flushed to the OS per record and fsynced every SyncEvery
// records (default: every record), so a SIGKILL loses at most the record
// being written. Open replays the journal, truncates a torn tail (the
// half-record a crash left behind), and rejects mid-journal corruption —
// a record that fails its CRC while intact records follow it — with a
// classified *CorruptError, because that is bit rot, not a crash.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/atomicio"
)

const (
	manifestName = "MANIFEST"
	journalName  = "journal.wal"

	manifestVersion = 1

	// maxKeyLen and maxPayloadLen bound what a record header may claim;
	// anything larger is corruption, not data.
	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 28
)

// CorruptError reports a journal whose middle is damaged: a record failed
// its CRC (or carried an impossible length) while intact data follows it.
// A torn tail — the final record cut short by a crash — is not an error;
// Open truncates and continues.
type CorruptError struct {
	// Path is the journal file.
	Path string
	// Offset is the byte offset of the damaged record.
	Offset int64
	// Reason says what was wrong.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: corrupt journal %s: %s (offset %d)", e.Path, e.Reason, e.Offset)
}

// manifest is the persisted identity of a journal directory.
type manifest struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
}

// Options tunes a Journal.
type Options struct {
	// SyncEvery fsyncs the journal file after every k appended records.
	// The default 1 makes every record durable before Put returns, so an
	// acknowledged batch survives a crash; raise it to trade durability of
	// the last few records for fewer fsyncs on write-heavy logs.
	SyncEvery int
}

// Journal is an append-only record of (key, payload) pairs. It is safe for
// concurrent use.
type Journal struct {
	dir string

	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	done   map[string][]byte
	synced int // appends since last fsync
	every  int
}

// Open opens (creating if necessary) the journal directory and replays its
// journal. key names what the records are written against (the mutation log
// uses its base fingerprint and generation); opening an existing directory
// with a different key fails.
func Open(dir, key string, opts ...Options) (*Journal, error) {
	opt := Options{}
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("ckpt: manifest %s unreadable: %w", mpath, err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("ckpt: manifest %s has version %d, this build writes %d", mpath, m.Version, manifestVersion)
		}
		if m.Key != key {
			return nil, fmt.Errorf("ckpt: journal %s is bound to key %q, not %q", dir, m.Key, key)
		}
	case os.IsNotExist(err):
		if err := atomicio.WriteFile(mpath, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(manifest{Version: manifestVersion, Key: key})
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("ckpt: %w", err)
	}

	jpath := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jpath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	j := &Journal{dir: dir, f: f, done: map[string][]byte{}, every: opt.SyncEvery}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	j.bw = bufio.NewWriterSize(f, 1<<16)
	return j, nil
}

// replay loads every intact record, truncates a torn tail, and positions
// the file at the end for appending.
func (j *Journal) replay() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	size := st.Size()
	br := bufio.NewReaderSize(j.f, 1<<16)
	var off int64
	truncateAt := int64(-1)
	for off < size {
		recStart := off
		var lens [8]byte
		n, err := io.ReadFull(br, lens[:])
		off += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			truncateAt = recStart // torn mid-length-field
			break
		}
		if err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		keyLen := int64(binary.LittleEndian.Uint32(lens[0:4]))
		payloadLen := int64(binary.LittleEndian.Uint32(lens[4:8]))
		end := recStart + 8 + keyLen + payloadLen + 4
		if end > size {
			truncateAt = recStart // record extends past EOF: torn append
			break
		}
		if keyLen > maxKeyLen || payloadLen > maxPayloadLen {
			return &CorruptError{Path: j.path(), Offset: recStart,
				Reason: fmt.Sprintf("impossible record lengths key=%d payload=%d", keyLen, payloadLen)}
		}
		body := make([]byte, keyLen+payloadLen+4)
		n, err = io.ReadFull(br, body)
		off += int64(n)
		if err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		crc := crc32.ChecksumIEEE(lens[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:keyLen+payloadLen])
		if stored := binary.LittleEndian.Uint32(body[keyLen+payloadLen:]); stored != crc {
			if end == size {
				truncateAt = recStart // damaged final record: treat as torn
				break
			}
			return &CorruptError{Path: j.path(), Offset: recStart,
				Reason: fmt.Sprintf("record checksum mismatch (stored %08x, computed %08x) with intact data after it", stored, crc)}
		}
		key := string(body[:keyLen])
		payload := make([]byte, payloadLen)
		copy(payload, body[keyLen:keyLen+payloadLen])
		j.done[key] = payload
	}
	if truncateAt >= 0 {
		if err := j.f.Truncate(truncateAt); err != nil {
			return fmt.Errorf("ckpt: truncating torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		if _, err := j.f.Seek(truncateAt, io.SeekStart); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		return nil
	}
	if _, err := j.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

func (j *Journal) path() string { return filepath.Join(j.dir, journalName) }

// Get returns the journaled payload of key, if present. The returned slice
// must not be modified.
func (j *Journal) Get(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.done[key]
	return p, ok
}

// Put appends one completed record and flushes it to the OS; every
// Options.SyncEvery appends it also fsyncs, making the batch durable. A
// re-Put of an existing key appends a superseding record (last wins on
// replay).
func (j *Journal) Put(key string, payload []byte) error {
	if len(key) > maxKeyLen {
		return fmt.Errorf("ckpt: key of %d bytes exceeds the %d-byte limit", len(key), maxKeyLen)
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("ckpt: payload of %d bytes exceeds the %d-byte limit", len(payload), maxPayloadLen)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("ckpt: journal is closed")
	}
	var lens [8]byte
	binary.LittleEndian.PutUint32(lens[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(lens[4:8], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(lens[:])
	crc = crc32.Update(crc, crc32.IEEETable, []byte(key))
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	for _, b := range [][]byte{lens[:], []byte(key), payload, trailer[:]} {
		if _, err := j.bw.Write(b); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	j.synced++
	if j.synced >= j.every {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		j.synced = 0
	}
	stored := make([]byte, len(payload))
	copy(stored, payload)
	j.done[key] = stored
	return nil
}

// Sync forces any unsynced appends to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	j.synced = 0
	return nil
}

// Close syncs and closes the journal. The Journal is unusable afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.bw.Flush()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	j.bw = nil
	return err
}
