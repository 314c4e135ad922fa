package mutate

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// corpusBatch is the deterministic batch every fuzz seed derives from: one
// of each op kind, so the mutator starts inside every decoder arm.
func corpusBatch() []Op {
	return []Op{
		{Op: OpAddVertex, Pos: []float64{0.25, 0.75}, W: 1.5},
		{Op: OpAddEdge, U: 5, V: 0},
		{Op: OpRemoveEdge, U: 1, V: 2},
		{Op: OpRemoveVertex, V: 3},
	}
}

// FuzzMutationLog is the journal decoder's robustness contract, the mirror
// of graphio's FuzzRead: arbitrary bytes through DecodeBatch must either
// decode — in which case re-encoding is byte-identical (the canonical-form
// property replay determinism rests on) — or fail as a classified
// *CorruptError. Never a panic, never an allocation proportional to a lying
// op count.
//
// Regenerate the seed corpus under testdata/fuzz/FuzzMutationLog with:
//
//	go run ./internal/mutate/gen_corpus.go
func FuzzMutationLog(f *testing.F) {
	valid, err := EncodeBatch(corpusBatch())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flip := bytes.Clone(valid)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff}) // huge op count, no payload

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := DecodeBatch(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *CorruptError: %v", err)
			}
			return
		}
		re, err := EncodeBatch(ops)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzSegmentImport is the replication decoder's contract: arbitrary bytes
// through the JSON decoding POST /cluster/replicate applies (a Segment), then
// Import into a fresh log over the seeds' base. Import must not panic; its
// error must be nil, a *SyncError or a *CorruptError; applied must count a
// prefix of the batches, journaled byte for byte; and reopening the journal
// with Resume must give the live log's fingerprint.
func FuzzSegmentImport(f *testing.F) {
	const n = 40
	base := testGraph(f, n, 21)
	primary, err := Open(f.TempDir(), base, Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer primary.Close()
	// The batches the replication tests ship: one join wired to two base
	// vertices, three times over.
	for next := n; next < n+3; next++ {
		if _, err := primary.Apply([]Op{
			{Op: OpAddVertex, Pos: []float64{0.25, 0.75}, W: 2.0},
			{Op: OpAddEdge, U: next, V: 0},
			{Op: OpAddEdge, U: next, V: 1},
		}); err != nil {
			f.Fatal(err)
		}
	}
	pos := primary.Head()
	seg, err := primary.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	flipped := seg
	flipped.Batches = [][]byte{seg.Batches[0], bytes.Clone(seg.Batches[1])}
	flipped.Batches[1][len(flipped.Batches[1])/2] ^= 0x40
	for _, s := range []Segment{
		seg,
		{BaseFP: seg.BaseFP, Generation: seg.Generation, From: 1, Batches: seg.Batches[1:]},
		{BaseFP: "0000000000000000", Generation: seg.Generation, Batches: seg.Batches},
		{BaseFP: seg.BaseFP, Generation: seg.Generation, From: -1, Batches: seg.Batches},
		{BaseFP: seg.BaseFP, Generation: seg.Generation, Batches: [][]byte{seg.Batches[1]}},
		flipped,
	} {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var seg Segment
		if json.Unmarshal(data, &seg) != nil {
			return
		}
		dir := t.TempDir()
		l, err := Open(dir, base, Config{})
		if err != nil {
			t.Fatal(err)
		}
		applied, err := l.Import(seg)
		var syncErr *SyncError
		var corrupt *CorruptError
		if err != nil && !errors.As(err, &syncErr) && !errors.As(err, &corrupt) {
			t.Fatalf("import error is neither a *SyncError nor a *CorruptError: %v", err)
		}
		if applied < 0 || applied > len(seg.Batches) || (applied > 0 && seg.From != 0) {
			t.Fatalf("applied %d of %d batches from %d into an empty log", applied, len(seg.Batches), seg.From)
		}
		head := l.Head()
		if head.Seq != applied {
			t.Fatalf("log at seq %d after applying %d batches", head.Seq, applied)
		}
		if applied > 0 {
			held, err := l.Export(head.BaseFP, head.Generation, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < applied; i++ {
				if !bytes.Equal(held.Batches[i], seg.Batches[i]) {
					t.Fatalf("journaled batch %d differs from the imported payload", i)
				}
			}
		}
		live := l.Fingerprint()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := Open(dir, base, Config{Resume: true})
		if err != nil {
			t.Fatalf("resume after import: %v", err)
		}
		defer resumed.Close()
		if got := resumed.Fingerprint(); got != live {
			t.Fatalf("resumed fingerprint %016x, live log %016x", got, live)
		}
	})
}

// TestFuzzCorpusCommitted pins the seed corpus: every committed seed must
// run clean through the fuzz property, and the corpus must cover at least
// the valid/truncated/bit-flipped triple so a regenerated corpus can't
// silently shrink.
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMutationLog")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(entries) < 5 {
		t.Fatalf("seed corpus has %d entries, want >= 5", len(entries))
	}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, ok := decodeCorpusFile(raw)
		if !ok {
			t.Fatalf("%s: not a go-fuzz v1 corpus file", ent.Name())
		}
		ops, err := DecodeBatch(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("%s: unclassified decode error: %v", ent.Name(), err)
			}
			continue
		}
		re, err := EncodeBatch(ops)
		if err != nil || !bytes.Equal(re, data) {
			t.Errorf("%s: valid seed does not round-trip (%v)", ent.Name(), err)
		}
	}
}

// decodeCorpusFile extracts the []byte literal from a "go test fuzz v1"
// corpus file.
func decodeCorpusFile(raw []byte) ([]byte, bool) {
	lines := bytes.SplitN(raw, []byte("\n"), 3)
	if len(lines) < 2 || string(lines[0]) != "go test fuzz v1" {
		return nil, false
	}
	body := string(lines[1])
	const pre, post = "[]byte(", ")"
	if len(body) < len(pre)+len(post) || body[:len(pre)] != pre || body[len(body)-1:] != post {
		return nil, false
	}
	s, err := strconv.Unquote(body[len(pre) : len(body)-1])
	if err != nil {
		return nil, false
	}
	return []byte(s), true
}
