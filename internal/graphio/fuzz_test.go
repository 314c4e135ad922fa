package graphio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/torus"
)

// corpusGraph is the deterministic attributed toy graph the fuzz seeds and
// gen_corpus.go encode: small enough for corpus files, rich enough (weights,
// 2-d positions, edges) to reach every decoder section.
func corpusGraph() *graph.Graph {
	const n = 5
	space, err := torus.NewSpace(2)
	if err != nil {
		panic(err)
	}
	coords := make([]float64, 2*n)
	weights := make([]float64, n)
	for v := 0; v < n; v++ {
		coords[2*v] = float64(v) / n
		coords[2*v+1] = float64(n-v) / (n + 1)
		weights[v] = 1 + float64(v)/2
	}
	pos, err := torus.NewPositionsRaw(space, coords)
	if err != nil {
		panic(err)
	}
	b, err := graph.NewBuilder(n, pos, weights, float64(n), 1)
	if err != nil {
		panic(err)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 4)
	b.AddEdge(3, 4)
	return b.Finish()
}

// FuzzRead is the decoder robustness contract: Read must return an error on
// malformed input — never panic, never mis-parse, never allocate
// proportionally to a lying header. One target covers both formats because
// Read auto-detects on the magic bytes, exactly like production input
// arrives (go test -fuzz accepts a single target per run).
//
// Regenerate the seed corpus under testdata/fuzz/FuzzRead with:
//
//	go run ./internal/graphio/gen_corpus.go
func FuzzRead(f *testing.F) {
	// Live seeds built from the real encoders, so the mutator starts from
	// inputs that exercise the deep paths of both decoders.
	g := corpusGraph()
	var text, bin bytes.Buffer
	if err := Write(&text, g); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinary(&bin, g); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add(bin.Bytes())
	// Truncations and single-byte corruptions of valid snapshots.
	for _, src := range [][]byte{text.Bytes(), bin.Bytes()} {
		f.Add(src[:len(src)/2])
		for _, i := range []int{0, 5, len(src) / 2, len(src) - 1} {
			mut := bytes.Clone(src)
			mut[i] ^= 0x40
			f.Add(mut)
		}
		f.Add(append(bytes.Clone(src), " x"...))
	}
	// Headers that promise far more data than they carry.
	f.Add([]byte("girg 1000000000 999999999 2 1 1\n"))
	f.Add([]byte{'G', 'I', 'R', 'B', 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// Well-formed snapshots whose floats are not numbers a score survives.
	f.Add([]byte("girg 2 1 1 2 1\nv 1 NaN\nv 1 0.5\ne 0 1\n"))
	f.Add([]byte("girg 2 1 1 2 1\nv 0 0.25\nv -Inf 0.5\ne 0 1\n"))
	// Snapshots at the vertex counts where the builder's packed ids widen
	// from 1 to 2 and from 2 to 3 bytes, each with edges at the top id.
	for _, n := range []int{255, 256, 257, 65535, 65536, 65537} {
		b, err := graph.NewBuilder(n, nil, nil, float64(n), 1)
		if err != nil {
			f.Fatal(err)
		}
		b.AddEdge(0, n-1)
		b.AddEdge(n-1, n-2)
		b.AddEdge(n/2, 1)
		wg := b.Finish()
		for _, enc := range []func(io.Writer, *graph.Graph) error{Write, WriteBinary} {
			var buf bytes.Buffer
			if err := enc(&buf, wg); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("Read returned a graph AND an error")
			}
			return
		}
		// Accepted attributes are numbers a score can be computed from:
		// finite coordinates, finite positive weights.
		for v := 0; v < got.N(); v++ {
			if w := got.Weight(v); !(w > 0) || math.IsInf(w, 0) {
				t.Fatalf("accepted weight %v on vertex %d", w, v)
			}
			for _, c := range got.Pos(v) {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("accepted coordinate %v on vertex %d", c, v)
				}
			}
		}
		// Accepted input must round-trip losslessly through both encoders:
		// a decoder that silently mis-parsed would break here.
		for name, enc := range map[string]func(*bytes.Buffer) error{
			"text":   func(b *bytes.Buffer) error { return Write(b, got) },
			"binary": func(b *bytes.Buffer) error { return WriteBinary(b, got) },
		} {
			var buf bytes.Buffer
			if err := enc(&buf); err != nil {
				t.Fatalf("%s re-encode of accepted input: %v", name, err)
			}
			again, err := Read(&buf)
			if err != nil {
				t.Fatalf("%s re-read of accepted input: %v", name, err)
			}
			if again.Fingerprint() != got.Fingerprint() {
				t.Fatalf("%s round-trip changed the graph", name)
			}
		}
	})
}

// TestCorruptClassified replays the committed seed corpus and checks that
// every rejection is a classified *CorruptError (or wraps one), not an
// anonymous parse failure — operators triage on Section and Offset.
func TestCorruptClassified(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no seed corpus: %v", err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, ok := decodeCorpusFile(raw)
		if !ok {
			t.Fatalf("%s: not a v1 corpus file", e.Name())
		}
		if _, err := Read(bytes.NewReader(data)); err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("%s: rejection not classified: %v", e.Name(), err)
			} else if ce.Format == "" || ce.Section == "" {
				t.Errorf("%s: classification incomplete: %+v", e.Name(), ce)
			}
		}
	}
}

// decodeCorpusFile extracts the []byte value of a "go test fuzz v1" corpus
// file (one quoted []byte line, as gen_corpus.go writes them).
func decodeCorpusFile(raw []byte) ([]byte, bool) {
	lines := bytes.SplitN(raw, []byte("\n"), 3)
	if len(lines) < 2 || !bytes.Equal(lines[0], []byte("go test fuzz v1")) {
		return nil, false
	}
	line := lines[1]
	const pre, post = "[]byte(", ")"
	if !bytes.HasPrefix(line, []byte(pre)) || !bytes.HasSuffix(line, []byte(post)) {
		return nil, false
	}
	s, err := strconv.Unquote(string(line[len(pre) : len(line)-len(post)]))
	if err != nil {
		return nil, false
	}
	return []byte(s), true
}
