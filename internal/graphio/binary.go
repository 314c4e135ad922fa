package graphio

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/torus"
)

// The binary snapshot format. Layout (all integers little-endian):
//
//	magic     [4]byte  "GIRB"
//	version   uint16   1
//	header    36 bytes n(u64) m(u64) dim(u16) flags(u16) intensity(f64) wmin(f64)
//	crc32     uint32   IEEE CRC of the 42 bytes above (magic + version + header)
//	weights   n × f64 payload, then uint32 payload CRC
//	positions n × dim × f64 payload, then uint32 payload CRC (absent when dim = 0)
//	edges     m × (u32, u32) payload with u < v, then uint32 payload CRC
//
// and nothing after the edge CRC: trailing bytes are corruption. Every
// section is independently checksummed, so ReadBinary can say *which* part
// of a snapshot a bit flip landed in, and a truncated file fails with a
// classified error instead of mis-parsing.

var binMagic = [4]byte{'G', 'I', 'R', 'B'}

const (
	binVersion = 1
	// binPrelude is the byte length of everything before the weights
	// section: magic, version, header payload, header CRC.
	binPrelude = 4 + 2 + 36 + 4

	// maxVertices and maxEdges bound what a header may claim. Vertex ids
	// are int32 in the CSR representation and its int32 offsets index 2m
	// arcs, so anything beyond these is structurally impossible and gets
	// rejected before any allocation is sized from it (and before
	// graph.Builder.AddEdge would panic at the edge that overflows).
	maxVertices = 1 << 31
	maxEdges    = 1 << 30
)

// WriteBinary serializes g in the checksummed binary format. Pair it with
// atomicio.WriteFile when writing to disk so a crash never leaves a
// half-written snapshot.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	dim := 0
	if g.Positions() != nil {
		dim = g.Space().Dim()
	}
	var pre [binPrelude]byte
	copy(pre[0:4], binMagic[:])
	binary.LittleEndian.PutUint16(pre[4:6], binVersion)
	binary.LittleEndian.PutUint64(pre[6:14], uint64(g.N()))
	binary.LittleEndian.PutUint64(pre[14:22], uint64(g.M()))
	binary.LittleEndian.PutUint16(pre[22:24], uint16(dim))
	binary.LittleEndian.PutUint16(pre[24:26], 0) // flags, reserved
	binary.LittleEndian.PutUint64(pre[26:34], math.Float64bits(g.Intensity()))
	binary.LittleEndian.PutUint64(pre[34:42], math.Float64bits(g.WMin()))
	binary.LittleEndian.PutUint32(pre[42:46], crc32.ChecksumIEEE(pre[:42]))
	if _, err := bw.Write(pre[:]); err != nil {
		return err
	}

	sec := newSectionWriter(bw)
	for v := 0; v < g.N(); v++ {
		sec.float64(g.Weight(v))
	}
	if err := sec.finish(); err != nil {
		return err
	}
	if dim > 0 {
		sec = newSectionWriter(bw)
		for _, c := range g.Positions().Raw() {
			sec.float64(c)
		}
		if err := sec.finish(); err != nil {
			return err
		}
	}
	sec = newSectionWriter(bw)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				sec.uint32(uint32(u))
				sec.uint32(uint32(v))
			}
		}
	}
	if err := sec.finish(); err != nil {
		return err
	}
	return bw.Flush()
}

// sectionWriter accumulates one section's payload CRC while streaming the
// payload through a scratch buffer, then appends the CRC trailer.
type sectionWriter struct {
	w   *bufio.Writer
	crc uint32
	buf [8]byte
	err error
}

func newSectionWriter(w *bufio.Writer) *sectionWriter {
	return &sectionWriter{w: w}
}

func (s *sectionWriter) bytes(b []byte) {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	_, s.err = s.w.Write(b)
}

func (s *sectionWriter) float64(v float64) {
	binary.LittleEndian.PutUint64(s.buf[:8], math.Float64bits(v))
	s.bytes(s.buf[:8])
}

func (s *sectionWriter) uint32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.bytes(s.buf[:4])
}

func (s *sectionWriter) finish() error {
	if s.err != nil {
		return s.err
	}
	binary.LittleEndian.PutUint32(s.buf[:4], s.crc)
	_, err := s.w.Write(s.buf[:4])
	return err
}

// binReader reads checksummed sections while tracking the stream offset
// for corruption reports.
type binReader struct {
	br  *bufio.Reader
	off int64
}

// full reads exactly len(b) bytes; a short read is classified corruption in
// the named section (the stream ended inside it), any other I/O error is
// returned as-is.
func (r *binReader) full(section string, b []byte) error {
	n, err := io.ReadFull(r.br, b)
	r.off += int64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corruptf("binary", section, r.off, "truncated: stream ends %d bytes into the section's remaining %d", n, len(b))
	}
	return err
}

// section reads a payload of total bytes in bounded chunks, handing each
// chunk to consume, then verifies the payload CRC trailer. Chunked reading
// keeps allocation proportional to data actually present, so a header
// claiming billions of vertices fails fast on a short stream instead of
// sizing buffers from the lie.
func (r *binReader) section(name string, total int64, consume func(chunk []byte)) error {
	const chunkSize = 1 << 16
	buf := make([]byte, chunkSize)
	crc := uint32(0)
	for remaining := total; remaining > 0; {
		n := int64(chunkSize)
		if n > remaining {
			n = remaining
		}
		if err := r.full(name, buf[:n]); err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		consume(buf[:n])
		remaining -= n
	}
	var trailer [4]byte
	if err := r.full(name, trailer[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc {
		return corruptf("binary", name, r.off-4, "checksum mismatch: stored %08x, computed %08x", got, crc)
	}
	return nil
}

// floats decodes a checksummed section of count float64 values and refuses
// the first one valid rejects: the CRC vouches for the bytes, not for what
// they spell, and a NaN coordinate or a zero weight poisons every score
// computed from it.
func (r *binReader) floats(name string, count int, valid func(float64) bool) ([]float64, error) {
	vals := make([]float64, 0, allocHint(count))
	start := r.off
	var bad error
	err := r.section(name, int64(count)*8, func(chunk []byte) {
		for i := 0; i+8 <= len(chunk); i += 8 {
			f := math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:]))
			if bad == nil && !valid(f) {
				bad = corruptf("binary", name, start+int64(len(vals))*8, "invalid value %v at index %d", f, len(vals))
			}
			vals = append(vals, f)
		}
	})
	if err != nil {
		return nil, err
	}
	return vals, bad
}

// readBinary decodes the binary format from br, whose next bytes start at
// the magic.
func readBinary(br *bufio.Reader) (*graph.Graph, error) {
	r := &binReader{br: br}
	var pre [binPrelude]byte
	if err := r.full("header", pre[:]); err != nil {
		return nil, err
	}
	if [4]byte(pre[0:4]) != binMagic {
		return nil, corruptf("binary", "header", 0, "bad magic %q", pre[0:4])
	}
	if got, want := binary.LittleEndian.Uint32(pre[42:46]), crc32.ChecksumIEEE(pre[:42]); got != want {
		return nil, corruptf("binary", "header", 42, "checksum mismatch: stored %08x, computed %08x", got, want)
	}
	if v := binary.LittleEndian.Uint16(pre[4:6]); v != binVersion {
		return nil, corruptf("binary", "header", 4, "unsupported version %d (this build reads %d)", v, binVersion)
	}
	n64 := binary.LittleEndian.Uint64(pre[6:14])
	m64 := binary.LittleEndian.Uint64(pre[14:22])
	dim := int(binary.LittleEndian.Uint16(pre[22:24]))
	intensity := math.Float64frombits(binary.LittleEndian.Uint64(pre[26:34]))
	wmin := math.Float64frombits(binary.LittleEndian.Uint64(pre[34:42]))
	if n64 >= maxVertices {
		return nil, corruptf("binary", "header", 6, "implausible vertex count %d", n64)
	}
	if m64 >= maxEdges {
		return nil, corruptf("binary", "header", 14, "implausible edge count %d", m64)
	}
	n, m := int(n64), int(m64)
	if !(intensity > 0) || math.IsInf(intensity, 0) {
		return nil, corruptf("binary", "header", 26, "invalid intensity %v", intensity)
	}
	if !(wmin > 0) || math.IsInf(wmin, 0) {
		return nil, corruptf("binary", "header", 34, "invalid wmin %v", wmin)
	}
	var space torus.Space
	if dim > 0 {
		var err error
		if space, err = torus.NewSpace(dim); err != nil {
			return nil, corruptf("binary", "header", 22, "%v", err)
		}
	}

	weights, err := r.floats("weights", n, validWeight)
	if err != nil {
		return nil, err
	}
	var pos *torus.Positions
	if dim > 0 {
		coords, err := r.floats("positions", n*dim, finite)
		if err != nil {
			return nil, err
		}
		if pos, err = torus.NewPositionsRaw(space, coords); err != nil {
			return nil, corruptf("binary", "positions", r.off, "%v", err)
		}
	}

	b, err := graph.NewBuilder(n, pos, weights, intensity, wmin)
	if err != nil {
		return nil, corruptf("binary", "header", 0, "%v", err)
	}
	var edgeErr error
	secStart := r.off
	err = r.section("edges", int64(m)*8, func(chunk []byte) {
		if edgeErr != nil {
			return
		}
		for i := 0; i+8 <= len(chunk); i += 8 {
			u := binary.LittleEndian.Uint32(chunk[i:])
			v := binary.LittleEndian.Uint32(chunk[i+4:])
			if u >= uint32(n) || v >= uint32(n) || u == v {
				edgeErr = corruptf("binary", "edges", secStart+int64(i), "invalid edge %d-%d (n = %d)", u, v, n)
				return
			}
			b.AddEdge(int(u), int(v))
		}
		secStart += int64(len(chunk))
	})
	if err != nil {
		return nil, err
	}
	if edgeErr != nil {
		return nil, edgeErr
	}

	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, err
		}
		return nil, corruptf("binary", "trailer", r.off, "trailing data after the edge section")
	}
	return b.Finish(), nil
}

// allocHint caps a header-derived preallocation size: real data grows the
// slice the rest of the way, a lying header never sizes an allocation.
func allocHint(n int) int {
	const most = 1 << 16
	if n < most {
		return n
	}
	return most
}
