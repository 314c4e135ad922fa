package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "sweep-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Put(fmt.Sprintf("cell/%d", i), []byte(fmt.Sprintf("result-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, "sweep-1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for i := 0; i < 10; i++ {
		got, ok := j2.Get(fmt.Sprintf("cell/%d", i))
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf("result-%d", i))) {
			t.Fatalf("cell/%d: got %q ok=%v", i, got, ok)
		}
	}
	if _, ok := j2.Get("cell/99"); ok {
		t.Fatal("phantom record")
	}
}

func TestKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "e=E16 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(dir, "e=E16 seed=2"); err == nil {
		t.Fatal("journal for a different sweep accepted")
	}
}

func TestLastPutWins(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir, "k")
	j.Put("a", []byte("first"))
	j.Put("a", []byte("second"))
	j.Close()
	j2, err := Open(dir, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, _ := j2.Get("a")
	if string(got) != "second" {
		t.Fatalf("got %q", got)
	}
}

// TestTortureTruncate cuts the journal at every byte boundary of the last
// record (and beyond, into the penultimate record) and asserts that Open
// always recovers: complete records survive, the torn tail is discarded,
// and the journal accepts appends again.
func TestTortureTruncate(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "torture")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("keep/0", []byte("payload-zero")); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("keep/1", []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, dir)
	if err := j.Put("torn", []byte("payload-torn")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizeBefore; cut <= int64(len(full)); cut++ {
		dir2 := t.TempDir()
		j2, err := Open(dir2, "torture")
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if err := os.WriteFile(filepath.Join(dir2, journalName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j3, err := Open(dir2, "torture")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got, ok := j3.Get("keep/0"); !ok || string(got) != "payload-zero" {
			t.Fatalf("cut at %d: keep/0 lost (%q, %v)", cut, got, ok)
		}
		if got, ok := j3.Get("keep/1"); !ok || string(got) != "payload-one" {
			t.Fatalf("cut at %d: keep/1 lost (%q, %v)", cut, got, ok)
		}
		if got, ok := j3.Get("torn"); cut < int64(len(full)) && ok {
			t.Fatalf("cut at %d: torn record resurrected as %q", cut, got)
		} else if cut == int64(len(full)) && (!ok || string(got) != "payload-torn") {
			t.Fatalf("uncut journal lost the last record")
		}
		// The recovered journal must accept appends and survive a reopen.
		if err := j3.Put("after", []byte("appended")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		j3.Close()
		j4, err := Open(dir2, "torture")
		if err != nil {
			t.Fatalf("cut at %d: reopen after recovery: %v", cut, err)
		}
		if got, ok := j4.Get("after"); !ok || string(got) != "appended" {
			t.Fatalf("cut at %d: appended record lost", cut)
		}
		j4.Close()
	}
}

// TestMidJournalCorruptionRejected flips a byte in the first record while
// intact records follow: that is bit rot, not a crash, and Open must
// refuse with a classified error instead of silently dropping work.
func TestMidJournalCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir, "rot")
	j.Put("first", []byte("payload-aaaa"))
	j.Put("second", []byte("payload-bbbb"))
	j.Close()
	path := filepath.Join(dir, journalName)
	raw, _ := os.ReadFile(path)
	raw[12] ^= 0x40 // inside the first record's key/payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, "rot")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-journal corruption: err = %v, want *CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Fatalf("corruption offset %d, want 0", ce.Offset)
	}
}

func fileSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
