package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// patchHeaderCRC recomputes the header checksum after a deliberate header
// mutation, so the test under it reaches the field validation it targets.
func patchHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[42:46], crc32.ChecksumIEEE(b[:42]))
}

// patchSectionCRC recomputes one section's payload checksum
// (payload = b[payloadStart:crcPos], trailer at crcPos).
func patchSectionCRC(b []byte, payloadStart, crcPos int) {
	binary.LittleEndian.PutUint32(b[crcPos:crcPos+4], crc32.ChecksumIEEE(b[payloadStart:crcPos]))
}

func encodeBinary(t *testing.T) ([]byte, uint64) {
	t.Helper()
	g := sampleGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g.Fingerprint()
}

func TestBinaryRoundTrip(t *testing.T) {
	raw, want := encodeBinary(t)
	g2, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != want {
		t.Fatal("binary round-trip changed the graph")
	}
}

func TestBinaryRoundTripNoGeometry(t *testing.T) {
	g := corpusGraph()
	var text bytes.Buffer
	if err := Write(&text, g); err != nil {
		t.Fatal(err)
	}
	// text → graph → binary → graph: the two formats describe one graph.
	g1, err := Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g1); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("text and binary disagree about the same graph")
	}
}

// TestBinaryBitFlipClassified flips one byte in each section and checks the
// decoder reports that section (never a panic, never a silent success).
func TestBinaryBitFlipClassified(t *testing.T) {
	raw, _ := encodeBinary(t)
	g, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n, dim := g.N(), g.Space().Dim()
	weightsAt := int64(binPrelude)
	positionsAt := weightsAt + int64(n)*8 + 4
	edgesAt := positionsAt + int64(n*dim)*8 + 4
	cases := []struct {
		section string
		offset  int64
	}{
		{"header", 8},
		{"weights", weightsAt + 3},
		{"positions", positionsAt + 3},
		{"edges", edgesAt + 3},
	}
	for _, tc := range cases {
		mut := bytes.Clone(raw)
		mut[tc.offset] ^= 0x01
		_, err := Read(bytes.NewReader(mut))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s flip: got %v, want *CorruptError", tc.section, err)
			continue
		}
		if ce.Section != tc.section {
			t.Errorf("flip at %d classified as section %q, want %q", tc.offset, ce.Section, tc.section)
		}
		if ce.Format != "binary" {
			t.Errorf("%s flip: format %q", tc.section, ce.Format)
		}
	}
}

// TestBinaryTruncations cuts the snapshot at every byte boundary: each
// prefix must be rejected with an error, never accepted or crash.
func TestBinaryTruncations(t *testing.T) {
	raw, _ := encodeBinary(t)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("accepted %d-byte prefix of a %d-byte snapshot", cut, len(raw))
		}
	}
}

func TestBinaryRejectsTrailingData(t *testing.T) {
	raw, _ := encodeBinary(t)
	_, err := Read(bytes.NewReader(append(bytes.Clone(raw), 0)))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "trailer" {
		t.Fatalf("trailing byte: got %v, want trailer CorruptError", err)
	}
}

func TestBinaryRejectsFutureVersion(t *testing.T) {
	raw, _ := encodeBinary(t)
	mut := bytes.Clone(raw)
	mut[4] = 2 // version u16 LE at offset 4
	// The header CRC covers the version, so recompute it or the CRC check
	// fires first; patching both isolates the version check.
	patchHeaderCRC(mut)
	_, err := Read(bytes.NewReader(mut))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "header" {
		t.Fatalf("future version: got %v", err)
	}
}

func TestBinaryRejectsImplausibleCounts(t *testing.T) {
	raw, _ := encodeBinary(t)
	mut := bytes.Clone(raw)
	for i := 6; i < 14; i++ { // n u64 LE at offset 6
		mut[i] = 0xff
	}
	patchHeaderCRC(mut)
	_, err := Read(bytes.NewReader(mut))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "header" {
		t.Fatalf("implausible n: got %v", err)
	}
}

func TestBinaryRejectsInvalidEdge(t *testing.T) {
	g := corpusGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// First edge endpoint lives right after weights and positions sections.
	edgeAt := binPrelude + g.N()*8 + 4 + g.N()*g.Space().Dim()*8 + 4
	mut := bytes.Clone(raw)
	mut[edgeAt] = 0xee // vertex id far beyond n=5
	patchSectionCRC(mut, edgeAt, len(raw)-4)
	_, err := Read(bytes.NewReader(mut))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "edges" {
		t.Fatalf("invalid edge id: got %v", err)
	}
}

// TestRejectsPoisonedAttributes is the trust boundary of the scan kernel: a
// snapshot whose checksums are valid but whose floats are not — a NaN or
// infinite coordinate, a NaN, infinite, zero or negative weight — is refused
// by both decoders with the section and offset of the offending value, while
// a finite coordinate outside [0, 1) loads and leaves the graph uncertified.
func TestRejectsPoisonedAttributes(t *testing.T) {
	g := corpusGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	weightsAt := binPrelude
	posAt := weightsAt + g.N()*8 + 4
	posEnd := posAt + g.N()*g.Space().Dim()*8
	// Vertex 3's weight, and vertex 3's second coordinate.
	weightOff, coordOff := weightsAt+3*8, posAt+(3*2+1)*8
	binaryWith := func(off int, v float64) []byte {
		mut := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(mut[off:], math.Float64bits(v))
		patchSectionCRC(mut, weightsAt, posAt-4)
		patchSectionCRC(mut, posAt, posEnd)
		return mut
	}
	textWith := func(w, c string) []byte {
		return []byte("girg 2 1 2 2 1\nv 1 0.25 0.5\nv " + w + " 0.75 " + c + "\ne 0 1\n")
	}
	secondLine := int64(len("girg 2 1 2 2 1\nv 1 0.25 0.5\n"))

	for _, c := range []struct {
		name    string
		in      []byte
		section string
		offset  int64
	}{
		{"binary NaN coordinate", binaryWith(coordOff, math.NaN()), "positions", int64(coordOff)},
		{"binary +Inf coordinate", binaryWith(coordOff, math.Inf(1)), "positions", int64(coordOff)},
		{"binary NaN weight", binaryWith(weightOff, math.NaN()), "weights", int64(weightOff)},
		{"binary +Inf weight", binaryWith(weightOff, math.Inf(1)), "weights", int64(weightOff)},
		{"binary zero weight", binaryWith(weightOff, 0), "weights", int64(weightOff)},
		{"binary negative weight", binaryWith(weightOff, -2), "weights", int64(weightOff)},
		{"text NaN coordinate", textWith("1", "NaN"), "vertices", secondLine},
		{"text -Inf coordinate", textWith("1", "-Inf"), "vertices", secondLine},
		{"text NaN weight", textWith("nan", "0.5"), "vertices", secondLine},
		{"text infinite weight", textWith("Inf", "0.5"), "vertices", secondLine},
		{"text zero weight", textWith("0", "0.5"), "vertices", secondLine},
		{"text negative weight", textWith("-1", "0.5"), "vertices", secondLine},
	} {
		got, err := Read(bytes.NewReader(c.in))
		var ce *CorruptError
		if got != nil || !errors.As(err, &ce) || ce.Section != c.section || ce.Offset != c.offset {
			t.Errorf("%s: got graph %v, error %v; want a corrupt error in %s at offset %d", c.name, got != nil, err, c.section, c.offset)
		}
	}

	for name, in := range map[string][]byte{
		"binary": binaryWith(coordOff, 1),
		"text":   textWith("1", "1"),
	} {
		got, err := Read(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: a coordinate of exactly 1 was refused: %v", name, err)
		}
		if got.UnitCoords() {
			t.Errorf("%s: a graph with a coordinate of 1 was certified", name)
		}
	}
	if clean, err := Read(bytes.NewReader(raw)); err != nil || !clean.UnitCoords() {
		t.Fatalf("the unmodified snapshot: error %v, certified %v", err, err == nil && clean.UnitCoords())
	}
}
