// Package graphio serializes generated graphs so the CLI tools can exchange
// them with external analysis pipelines, in two formats that round-trip
// everything the routing objectives need (positions, weights, intensity,
// wmin):
//
//   - a plain-text format with a header, one vertex line per vertex and one
//     edge line per edge — greppable, diffable, the lowest-friction way in
//     and out of other tooling;
//   - a versioned binary format (see binary.go) whose header, weight,
//     position and edge sections each carry a CRC32, for snapshots that
//     must be verifiable after crashes, copies, and bit rot.
//
// Read auto-detects the format from the leading magic bytes. All parse and
// integrity failures are classified *CorruptError values — section and byte
// offset included — so a truncated or bit-flipped snapshot is rejected with
// a diagnosis instead of being silently mis-parsed.
package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/torus"
)

// Write serializes g in the text format. The format is line-oriented:
//
//	girg <n> <m> <dim> <intensity> <wmin>
//	v <weight> <x_1> ... <x_dim>      (n lines, vertex id = line order)
//	e <u> <v>                         (m lines, u < v)
func Write(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	dim := 0
	if g.Positions() != nil {
		dim = g.Space().Dim()
	}
	fmt.Fprintf(bw, "girg %d %d %d %g %g\n", g.N(), g.M(), dim, g.Intensity(), g.WMin())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "v %g", g.Weight(v))
		if dim > 0 {
			for _, c := range g.Pos(v) {
				fmt.Fprintf(bw, " %g", c)
			}
		}
		bw.WriteByte('\n')
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				fmt.Fprintf(bw, "e %d %d\n", u, v)
			}
		}
	}
	return bw.Flush()
}

// Read parses a snapshot in either format, dispatching on the leading
// magic bytes: binary snapshots start with the GIRB magic, everything else
// is parsed as the text format. Corrupt input of either format returns a
// classified *CorruptError; errors of the underlying reader are returned
// as-is.
func Read(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binMagic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if bytes.Equal(head, binMagic[:]) {
		return readBinary(br)
	}
	return readText(br)
}

// ReadFile opens and parses a snapshot file (either format).
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// lineReader hands out lines of any length (the old Scanner-based reader
// capped lines at 1 MiB, which high-dimensional vertex lines can exceed)
// and tracks each line's starting byte offset for corruption reports.
type lineReader struct {
	br  *bufio.Reader
	off int64 // offset of the next unread byte
}

// next returns the next line (trailing newline stripped) and its starting
// offset. At end of input it returns io.EOF; a final line without a
// newline is still returned.
func (lr *lineReader) next() (line string, start int64, err error) {
	start = lr.off
	s, err := lr.br.ReadString('\n')
	lr.off += int64(len(s))
	if err == io.EOF && len(s) > 0 {
		err = nil
	}
	if err != nil {
		return "", start, err
	}
	return strings.TrimSuffix(s, "\n"), start, nil
}

// textLine reads one expected line of the named section, classifying a
// premature end of input as corruption.
func (lr *lineReader) textLine(section string, what string) (string, int64, error) {
	line, start, err := lr.next()
	if err == io.EOF {
		return "", start, corruptf("text", section, start, "truncated at %s", what)
	}
	if err != nil {
		return "", start, err
	}
	return line, start, nil
}

// readText parses the text format from br.
func readText(br *bufio.Reader) (*graph.Graph, error) {
	lr := &lineReader{br: br}
	header, start, err := lr.next()
	if err == io.EOF {
		return nil, corruptf("text", "header", 0, "empty input")
	}
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(header)
	if len(fields) != 6 || fields[0] != "girg" {
		return nil, corruptf("text", "header", start, "bad header %q", header)
	}
	var (
		n, m, dim       int
		intensity, wmin float64
	)
	if n, err = strconv.Atoi(fields[1]); err != nil || n < 0 {
		return nil, corruptf("text", "header", start, "bad n %q", fields[1])
	}
	if m, err = strconv.Atoi(fields[2]); err != nil || m < 0 {
		return nil, corruptf("text", "header", start, "bad m %q", fields[2])
	}
	if dim, err = strconv.Atoi(fields[3]); err != nil {
		return nil, corruptf("text", "header", start, "bad dim %q", fields[3])
	}
	if intensity, err = strconv.ParseFloat(fields[4], 64); err != nil {
		return nil, corruptf("text", "header", start, "bad intensity %q", fields[4])
	}
	if wmin, err = strconv.ParseFloat(fields[5], 64); err != nil {
		return nil, corruptf("text", "header", start, "bad wmin %q", fields[5])
	}
	if n >= maxVertices {
		return nil, corruptf("text", "header", start, "implausible vertex count %d", n)
	}
	if m >= maxEdges {
		return nil, corruptf("text", "header", start, "implausible edge count %d", m)
	}
	var space torus.Space
	if dim > 0 {
		if space, err = torus.NewSpace(dim); err != nil {
			return nil, corruptf("text", "header", start, "%v", err)
		}
	}

	// Vertex and coordinate stores grow with the lines actually read, so a
	// header lying about n cannot size an allocation.
	weights := make([]float64, 0, allocHint(n))
	var coords []float64
	if dim > 0 {
		coords = make([]float64, 0, allocHint(n*dim))
	}
	for v := 0; v < n; v++ {
		line, start, err := lr.textLine("vertices", fmt.Sprintf("vertex %d of %d", v, n))
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 2+dim || fields[0] != "v" {
			return nil, corruptf("text", "vertices", start, "bad vertex line %q", line)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, corruptf("text", "vertices", start, "bad weight on vertex %d: %v", v, err)
		}
		if !validWeight(w) {
			return nil, corruptf("text", "vertices", start, "invalid weight %v on vertex %d", w, v)
		}
		weights = append(weights, w)
		for i := 0; i < dim; i++ {
			c, err := strconv.ParseFloat(fields[2+i], 64)
			if err != nil {
				return nil, corruptf("text", "vertices", start, "bad coordinate on vertex %d: %v", v, err)
			}
			if !finite(c) {
				return nil, corruptf("text", "vertices", start, "non-finite coordinate %v on vertex %d", c, v)
			}
			coords = append(coords, c)
		}
	}
	var pos *torus.Positions
	if dim > 0 {
		if pos, err = torus.NewPositionsRaw(space, coords); err != nil {
			return nil, corruptf("text", "vertices", lr.off, "%v", err)
		}
	}

	b, err := graph.NewBuilder(n, pos, weights, intensity, wmin)
	if err != nil {
		return nil, corruptf("text", "header", 0, "%v", err)
	}
	for i := 0; i < m; i++ {
		line, start, err := lr.textLine("edges", fmt.Sprintf("edge %d of %d", i, m))
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "e" {
			return nil, corruptf("text", "edges", start, "bad edge line %q", line)
		}
		u, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, corruptf("text", "edges", start, "bad edge endpoint %q", fields[1])
		}
		v, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, corruptf("text", "edges", start, "bad edge endpoint %q", fields[2])
		}
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, corruptf("text", "edges", start, "invalid edge %d-%d (n = %d)", u, v, n)
		}
		b.AddEdge(u, v)
	}

	// Anything but whitespace after the last edge line means the header
	// undercounted — refuse rather than silently drop data.
	for {
		line, start, err := lr.next()
		if err == io.EOF {
			return b.Finish(), nil
		}
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(line) != "" {
			return nil, corruptf("text", "trailer", start, "trailing data after the last edge line: %q", line)
		}
	}
}

// WriteEdgeList emits a bare "u<TAB>v" edge list (no attributes), the
// lowest common denominator for external tools.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				fmt.Fprintf(bw, "%d\t%d\n", u, v)
			}
		}
	}
	return bw.Flush()
}
