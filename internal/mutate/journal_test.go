package mutate

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenOps is the batch TestJournalGoldenBytes journals: a join and an edge
// to it, so the record holds both a vertex's coordinates and a vertex id.
func goldenOps() []Op {
	return []Op{
		{Op: OpAddVertex, Pos: []float64{0.25, 0.75}, W: 1.5},
		{Op: OpAddEdge, U: 50, V: 7},
	}
}

// TestJournalGoldenBytes pins the journal's record format byte for byte: the
// first batch of a fresh log is the record `u32 10 | u32 payload length |
// b/00000000 | EncodeBatch(goldenOps) | u32 CRC-32`. Round trips cannot see
// a format change; this can. It must pass unedited across refactors.
func TestJournalGoldenBytes(t *testing.T) {
	const golden = "" +
		"0a000000" + "28000000" + // key and payload lengths
		"622f3030303030303030" + // b/00000000
		"0102000000" + // batch version 1, 2 ops
		"0102000000000000d03f000000000000e83f000000000000f83f" + // add-vertex dim 2 (0.25, 0.75) w 1.5
		"033200000007000000" + // add-edge 50-7
		"71644e7f" // CRC-32 of all of the above

	dir := t.TempDir()
	l, err := Open(dir, testGraph(t, 50, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(goldenOps()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "gen-000001", "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != golden {
		t.Fatalf("journal record bytes changed:\n got %s\nwant %s", got, golden)
	}
}

// TestLengthWordRotIsNotATornTail flips, one at a time, each of the 64 bits
// of the first record's two length words in a three-record journal. A flip
// that makes the record claim more bytes than the file holds once read as a
// torn tail, and truncating there dropped the two acknowledged batches after
// it. Every flip must now either be refused as a *CorruptError or keep both
// later batches.
func TestLengthWordRotIsNotATornTail(t *testing.T) {
	g := testGraph(t, 200, 21)
	batches := genBatches(t, g, 3, 22)
	src := t.TempDir()
	l := mustOpen(t, src, g, Config{})
	applyAll(t, l, batches)
	l.Close()
	clean, err := os.ReadFile(filepath.Join(src, genDirName(1), "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(filepath.Join(src, currentName))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(src, genDirName(1), "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	for bit := 0; bit < 64; bit++ {
		dir := t.TempDir()
		gdir := filepath.Join(dir, genDirName(1))
		if err := os.MkdirAll(gdir, 0o755); err != nil {
			t.Fatal(err)
		}
		rotten := append([]byte(nil), clean...)
		rotten[bit/8] ^= 1 << (bit % 8)
		for name, b := range map[string][]byte{
			filepath.Join(dir, currentName):    current,
			filepath.Join(gdir, "MANIFEST"):    manifest,
			filepath.Join(gdir, "journal.wal"): rotten,
		} {
			if err := os.WriteFile(name, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resumed, err := Open(dir, g, Config{Resume: true})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("bit %d: got %v, want *CorruptError", bit, err)
			}
			continue
		}
		if got := resumed.Stats().Replayed; got != 3 {
			t.Errorf("bit %d: opened without error and replayed %d of 3 batches", bit, got)
		}
		resumed.Close()
	}
}

func mustOpenJournal(t *testing.T, dir, key string) *journal {
	t.Helper()
	j, err := openJournal(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func mustPut(t *testing.T, j *journal, seq int, payload string) {
	t.Helper()
	if err := j.put(seq, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, "log-1")
	for i := 0; i < 10; i++ {
		mustPut(t, j, i, fmt.Sprintf("result-%d", i))
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpenJournal(t, dir, "log-1")
	defer j2.close()
	for i := 0; i < 10; i++ {
		got, ok := j2.get(i)
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf("result-%d", i))) {
			t.Fatalf("batch %d: got %q ok=%v", i, got, ok)
		}
	}
	for _, seq := range []int{-1, 10, 99} {
		if _, ok := j2.get(seq); ok {
			t.Fatalf("phantom batch %d", seq)
		}
	}
	if err := j2.put(11, []byte("gap")); err == nil {
		t.Fatal("a batch past the next sequence number was journaled")
	}
}

func TestKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	mustOpenJournal(t, dir, "mutlog/0123/gen-000001").close()
	if _, err := openJournal(dir, "mutlog/0123/gen-000002"); err == nil {
		t.Fatal("journal bound to a different generation accepted")
	}
}

func TestLastPutWins(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, "k")
	mustPut(t, j, 0, "first")
	mustPut(t, j, 0, "second")
	j.close()
	j2 := mustOpenJournal(t, dir, "k")
	defer j2.close()
	if got, _ := j2.get(0); string(got) != "second" {
		t.Fatalf("got %q", got)
	}
}

// TestTortureTruncate cuts the journal at every byte boundary of the last
// record and asserts that opening always recovers: complete records
// survive, the torn tail is discarded, and the journal accepts appends
// again.
func TestTortureTruncate(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, "torture")
	mustPut(t, j, 0, "payload-zero")
	mustPut(t, j, 1, "payload-one")
	st, err := j.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := int(st.Size())
	mustPut(t, j, 2, "payload-torn")
	j.close()
	full, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizeBefore; cut <= len(full); cut++ {
		dir2 := t.TempDir()
		mustOpenJournal(t, dir2, "torture").close()
		if err := os.WriteFile(filepath.Join(dir2, journalName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j3, err := openJournal(dir2, "torture")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got, ok := j3.get(0); !ok || string(got) != "payload-zero" {
			t.Fatalf("cut at %d: batch 0 lost (%q, %v)", cut, got, ok)
		}
		if got, ok := j3.get(1); !ok || string(got) != "payload-one" {
			t.Fatalf("cut at %d: batch 1 lost (%q, %v)", cut, got, ok)
		}
		got, ok := j3.get(2)
		if cut < len(full) && ok {
			t.Fatalf("cut at %d: torn record resurrected as %q", cut, got)
		} else if cut == len(full) && (!ok || string(got) != "payload-torn") {
			t.Fatalf("uncut journal lost the last record")
		}
		// The recovered journal must accept appends and survive a reopen.
		next := len(j3.payloads)
		if err := j3.put(next, []byte("appended")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		j3.close()
		j4, err := openJournal(dir2, "torture")
		if err != nil {
			t.Fatalf("cut at %d: reopen after recovery: %v", cut, err)
		}
		if got, ok := j4.get(next); !ok || string(got) != "appended" {
			t.Fatalf("cut at %d: appended record lost", cut)
		}
		j4.close()
	}
}

// TestMidJournalCorruptionRejected flips a byte in the first record while
// an intact record follows: that is bit rot, not a crash, and opening must
// refuse with a classified error naming the file instead of silently
// dropping work.
func TestMidJournalCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, "rot")
	mustPut(t, j, 0, "payload-aaaa")
	mustPut(t, j, 1, "payload-bbbb")
	j.close()
	path := filepath.Join(dir, journalName)
	raw, _ := os.ReadFile(path)
	raw[12] ^= 0x40 // inside the first record's key
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openJournal(dir, "rot")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-journal corruption: err = %v, want *CorruptError", err)
	}
	if ce.Offset != 0 || ce.Path != path {
		t.Fatalf("corruption at %s offset %d, want %s offset 0", ce.Path, ce.Offset, path)
	}
}
