// Package mutate turns the frozen snapshot store into a living graph: a
// batched mutation log (add/remove vertex, add/remove edge) journaled
// as internal/frame records before a batch becomes visible, applied as
// copy-on-write graph.Overlay generations over the immutable base snapshot,
// with a compactor that folds a grown delta into a fresh checksummed girgb
// snapshot and starts the next journal generation atomically.
//
// The durability contract: every applied batch is fsynced into the
// write-ahead journal before the caller sees success, so a SIGKILL'd daemon
// replays to a bit-identical graph fingerprint on restart; a torn journal
// tail (the crash-interrupted batch) is truncated away and mid-journal
// bit-rot fails loudly as a classified *CorruptError.
package mutate

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/torus"
)

// Op kinds, as spelled on the HTTP wire.
const (
	OpAddVertex    = "add-vertex"
	OpRemoveVertex = "remove-vertex"
	OpAddEdge      = "add-edge"
	OpRemoveEdge   = "remove-edge"
)

// Op is one mutation: the unit POST /admin/mutate accepts and the journal
// records. Exactly the fields the kind needs are read; the rest are
// ignored on input and omitted on output.
type Op struct {
	// Op is the kind: add-vertex | remove-vertex | add-edge | remove-edge.
	Op string `json:"op"`
	// U and V are the edge endpoints (add-edge, remove-edge); V doubles as
	// the vertex id of remove-vertex.
	U int `json:"u,omitempty"`
	V int `json:"v,omitempty"`
	// Pos is the joining vertex's torus position (add-vertex).
	Pos []float64 `json:"pos,omitempty"`
	// W is the joining vertex's model weight (add-vertex); it must be at
	// least the base model's wmin.
	W float64 `json:"w,omitempty"`
}

// OpError reports a batch rejected by validation: the op at Index failed
// with Err and the whole batch was discarded — the live graph is unchanged.
// The serving layer maps it to HTTP 422.
type OpError struct {
	Index int
	Op    Op
	Err   error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("mutate: op %d (%s): %v", e.Index, e.Op.Op, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// CorruptError reports journal bytes that are not what was written. With a
// Path it is a damaged journal file — a record that is cut short or fails
// its checksum while an intact record follows it (bit rot, not a crash), or
// one whose key is out of sequence — and Offset is the record's byte offset
// in the file (FuzzJournal). Without one it is a record payload that is not
// a well-formed mutation batch, and Offset is the byte offset inside the
// payload: the decoder returns it for every malformed input, never panics
// and never allocates unboundedly (FuzzMutationLog).
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("mutate: corrupt journal %s: %s (offset %d)", e.Path, e.Reason, e.Offset)
	}
	return fmt.Sprintf("mutate: corrupt batch at offset %d: %s", e.Offset, e.Reason)
}

func corruptf(off int64, format string, args ...interface{}) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// Binary batch layout (inside one journal record's payload, which already
// carries its own length prefix and CRC):
//
//	u8  version (1)
//	u32 op count (LE)
//	per op: u8 kind, then
//	  kindAddVertex:    u8 dim, dim × f64 pos, f64 w
//	  kindRemoveVertex: u32 v
//	  kindAddEdge:      u32 u, u32 v
//	  kindRemoveEdge:   u32 u, u32 v
//
// The encoding is canonical — EncodeBatch(DecodeBatch(b)) == b for every
// valid b — so replicas replaying the same journal hold byte-identical
// records.
const (
	batchVersion = 1

	kindAddVertex    = 1
	kindRemoveVertex = 2
	kindAddEdge      = 3
	kindRemoveEdge   = 4

	// minOpSize bounds how many ops a payload of a given length can hold
	// (kind byte + at least a u32), which caps the decoder's allocation for
	// hostile counts.
	minOpSize = 5

	maxVertexID = math.MaxInt32
)

// EncodeBatch encodes ops into the journal payload format. Ops must have
// passed validation (in particular ids fit int32 and positions fit the
// MaxDim cap); out-of-representation values error.
func EncodeBatch(ops []Op) ([]byte, error) {
	buf := make([]byte, 0, 1+4+len(ops)*minOpSize)
	buf = append(buf, batchVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)))
	for i, op := range ops {
		switch op.Op {
		case OpAddVertex:
			if len(op.Pos) == 0 || len(op.Pos) > torus.MaxDim {
				return nil, fmt.Errorf("mutate: op %d: position dimension %d outside [1, %d]", i, len(op.Pos), torus.MaxDim)
			}
			buf = append(buf, kindAddVertex, byte(len(op.Pos)))
			for _, c := range op.Pos {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.W))
		case OpRemoveVertex:
			if op.V < 0 || op.V > maxVertexID {
				return nil, fmt.Errorf("mutate: op %d: vertex %d unrepresentable", i, op.V)
			}
			buf = append(buf, kindRemoveVertex)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.V))
		case OpAddEdge, OpRemoveEdge:
			if op.U < 0 || op.U > maxVertexID || op.V < 0 || op.V > maxVertexID {
				return nil, fmt.Errorf("mutate: op %d: edge {%d, %d} unrepresentable", i, op.U, op.V)
			}
			k := byte(kindAddEdge)
			if op.Op == OpRemoveEdge {
				k = kindRemoveEdge
			}
			buf = append(buf, k)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.V))
		default:
			return nil, fmt.Errorf("mutate: op %d: unknown kind %q", i, op.Op)
		}
	}
	return buf, nil
}

// DecodeBatch decodes a journal payload back into ops. Every malformed
// input — truncation, bad version, bad kind, impossible counts, trailing
// bytes — returns a *CorruptError; valid inputs round-trip byte-identically
// through EncodeBatch.
func DecodeBatch(payload []byte) ([]Op, error) {
	off := int64(0)
	if len(payload) < 5 {
		return nil, corruptf(off, "payload %d bytes, want at least 5", len(payload))
	}
	if payload[0] != batchVersion {
		return nil, corruptf(0, "unknown batch version %d", payload[0])
	}
	count := binary.LittleEndian.Uint32(payload[1:5])
	off = 5
	rest := payload[5:]
	if max := uint32(len(rest) / minOpSize); count > max {
		return nil, corruptf(1, "op count %d impossible for %d payload bytes", count, len(rest))
	}
	ops := make([]Op, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, corruptf(off, "truncated: op %d missing", i)
		}
		kind := rest[0]
		rest = rest[1:]
		off++
		need := func(n int, what string) error {
			if len(rest) < n {
				return corruptf(off, "truncated %s in op %d: %d bytes left, want %d", what, i, len(rest), n)
			}
			return nil
		}
		switch kind {
		case kindAddVertex:
			if err := need(1, "dimension"); err != nil {
				return nil, err
			}
			dim := int(rest[0])
			rest = rest[1:]
			off++
			if dim == 0 || dim > torus.MaxDim {
				return nil, corruptf(off-1, "position dimension %d outside [1, %d]", dim, torus.MaxDim)
			}
			if err := need(8*(dim+1), "position/weight"); err != nil {
				return nil, err
			}
			op := Op{Op: OpAddVertex, Pos: make([]float64, dim)}
			for j := 0; j < dim; j++ {
				op.Pos[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
				off += 8
			}
			op.W = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
			off += 8
			ops = append(ops, op)
		case kindRemoveVertex:
			if err := need(4, "vertex id"); err != nil {
				return nil, err
			}
			v := binary.LittleEndian.Uint32(rest)
			rest = rest[4:]
			off += 4
			if v > maxVertexID {
				return nil, corruptf(off-4, "vertex id %d unrepresentable", v)
			}
			ops = append(ops, Op{Op: OpRemoveVertex, V: int(v)})
		case kindAddEdge, kindRemoveEdge:
			if err := need(8, "edge endpoints"); err != nil {
				return nil, err
			}
			u := binary.LittleEndian.Uint32(rest)
			v := binary.LittleEndian.Uint32(rest[4:])
			rest = rest[8:]
			off += 8
			if u > maxVertexID || v > maxVertexID {
				return nil, corruptf(off-8, "edge {%d, %d} unrepresentable", u, v)
			}
			name := OpAddEdge
			if kind == kindRemoveEdge {
				name = OpRemoveEdge
			}
			ops = append(ops, Op{Op: name, U: int(u), V: int(v)})
		default:
			return nil, corruptf(off-1, "unknown op kind %d", kind)
		}
	}
	if len(rest) != 0 {
		return nil, corruptf(off, "%d trailing bytes after %d ops", len(rest), count)
	}
	return ops, nil
}

// applyOps applies a validated-or-rejected batch to an overlay edit. The
// first failing op aborts with an *OpError and the caller discards the
// edit, so batches are all-or-nothing. Returned ids are the vertices the
// batch's add-vertex ops created, in op order.
func applyOps(e *graph.OverlayEdit, ops []Op) (assigned []int, err error) {
	for i, op := range ops {
		switch op.Op {
		case OpAddVertex:
			v, err := e.AddVertex(op.Pos, op.W)
			if err != nil {
				return nil, &OpError{Index: i, Op: op, Err: err}
			}
			assigned = append(assigned, v)
		case OpRemoveVertex:
			if err := e.RemoveVertex(op.V); err != nil {
				return nil, &OpError{Index: i, Op: op, Err: err}
			}
		case OpAddEdge:
			if err := e.AddEdge(op.U, op.V); err != nil {
				return nil, &OpError{Index: i, Op: op, Err: err}
			}
		case OpRemoveEdge:
			if err := e.RemoveEdge(op.U, op.V); err != nil {
				return nil, &OpError{Index: i, Op: op, Err: err}
			}
		default:
			return nil, &OpError{Index: i, Op: op, Err: fmt.Errorf("unknown op kind %q", op.Op)}
		}
	}
	return assigned, nil
}
