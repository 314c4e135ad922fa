package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Bench-side tracing. In a traced run every call the workload loop makes
// into a layer is wrapped in a span recorded here, from outside the program:
// name, start, end, the span that caused it, and the operation it belongs
// to. Spans stay in memory while the loop runs and are written as JSONL when
// the run ends. Spans inside the program are a later issue.
type span struct {
	name   uint8
	parent int32 // index of the parent span, -1 for an operation's root
	op     int32
	start  int64 // ns since the recorder began
	end    int64
}

type spanRec struct {
	t0    time.Time
	names []string
	spans []span
}

func newSpanRec(capacity int) *spanRec {
	return &spanRec{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// name interns a span name; call it before the loop.
func (r *spanRec) name(s string) uint8 {
	if r == nil {
		return 0
	}
	r.names = append(r.names, s)
	return uint8(len(r.names) - 1)
}

// begin opens a span and returns its index. All methods are no-ops on a nil
// recorder, which is how the untraced loop runs the same code.
func (r *spanRec) begin(name uint8, parent int32, op int) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, op: int32(op), start: int64(time.Since(r.t0))})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.t0))
}

// write dumps the spans as one JSON object per line.
func (r *spanRec) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range r.spans {
		line = append(line[:0], `{"span":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"op":`...)
		line = strconv.AppendInt(line, int64(s.op), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, r.names[s.name])
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
