package graphio

import (
	"fmt"
	"math"
)

// CorruptError classifies snapshot input that failed structural or
// integrity validation: which format was being decoded, which section the
// problem sits in, and the byte offset where it was detected. Every parse
// failure in this package is a *CorruptError, so callers can distinguish
// "the snapshot is bad" (reject it, count it, quarantine it) from I/O
// errors on the medium (retry, surface to the operator), which are returned
// unwrapped.
type CorruptError struct {
	// Format is the format being decoded: "text" or "binary".
	Format string
	// Section locates the failure: "header", "vertices", "weights",
	// "positions", "edges", or "trailer".
	Section string
	// Offset is the byte offset into the stream where the corruption was
	// detected (the start of the offending line for the text format).
	Offset int64
	// Reason says what was wrong.
	Reason string
}

// Error renders the classification in one line.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("graphio: corrupt %s snapshot: %s (section %s, offset %d)",
		e.Format, e.Reason, e.Section, e.Offset)
}

// corruptf builds a *CorruptError with a formatted reason.
func corruptf(format, section string, offset int64, reasonFormat string, args ...interface{}) error {
	return &CorruptError{
		Format:  format,
		Section: section,
		Offset:  offset,
		Reason:  fmt.Sprintf(reasonFormat, args...),
	}
}

// finite reports whether f is a number. Both decoders require it of every
// coordinate: the max norm reads a NaN difference as distance 0, so a vertex
// with a NaN coordinate would score +Inf toward every target. A finite
// coordinate outside [0, 1) still loads (the HRG-to-GIRG angle map may emit
// exactly 1.0) and merely leaves the graph without graph.UnitCoords.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validWeight reports whether w is a finite positive number, as every
// generator emits; anything else makes the objective zero, negative or NaN.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 0) }
