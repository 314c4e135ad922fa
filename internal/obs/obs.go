// Package obs is the unified observability layer of the repository: one
// place that defines how every binary logs, traces and exposes metrics, so
// a request can be followed through admission, retries, breaker trips and
// engine episodes with a single id, and a routing trajectory — the paper's
// central empirical object — can be captured, exported and split into its
// two Figure-1 phases.
//
// Four pillars:
//
//   - structured logging: one log/slog configuration (LogConfig flags,
//     text or JSON handler, level) whose logger is passed explicitly —
//     never installed as the slog default. The daemon edge generates a
//     request id (RequestIDs), returns it in an X-Request-ID header and
//     puts it in the request context (WithRequestID); a logger wrapped once
//     by RequestLogger adds it to every record logged with that context, so
//     every slog line of the request carries the id that replays it.
//
//   - trace recorder: SpanLog samples requests deterministically and keeps a
//     bounded ring of PhaseSpans — where the time went, across daemons —
//     whose local_route spans carry the walk's hops (hop index, vertex,
//     model weight, objective value), exported as JSONL (the daemon serves
//     GET /debug/trace).
//
//   - phase analyzer: Analyze splits a trajectory at its maximum-weight hop
//     into the weight-increasing and objective-increasing phases of Figure 1,
//     so experiments and dashboards can report phase lengths.
//
//   - Prometheus exposition: PromWriter emits the text exposition format
//     without any dependency; WriteEngineMetrics and WriteRuntimeMetrics
//     translate the engine counters and the Go runtime into stable metric
//     names (package serve adds the serving-layer families).
package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"

	"repro/internal/xrand"
)

// LogConfig is the shared logging configuration of the binaries; register
// it with RegisterLogFlags so every CLI exposes the same -log-format and
// -log-level flags.
type LogConfig struct {
	// Format selects the slog handler: "text" (human-readable key=value)
	// or "json" (machine-parseable, one object per line).
	Format string
	// Level is the minimum level emitted: debug | info | warn | error.
	Level string
}

// RegisterLogFlags registers -log-format and -log-level on fs and returns
// the config they fill.
func RegisterLogFlags(fs *flag.FlagSet) *LogConfig {
	c := &LogConfig{}
	fs.StringVar(&c.Format, "log-format", "text", "log format: text | json")
	fs.StringVar(&c.Level, "log-level", "info", "minimum log level: debug | info | warn | error")
	return c
}

// NewLogger builds the slog logger described by the config, writing to w.
func (c *LogConfig) NewLogger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch c.Level {
	case "", "info":
		level = slog.LevelInfo
	case "debug":
		level = slog.LevelDebug
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (debug | info | warn | error)", c.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch c.Format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (text | json)", c.Format)
	}
}

// RequestIDs generates the request ids handed out at the daemon edge: a
// process salt mixed with a sequence number through the same splitmix-style
// hash the rest of the repository uses, so ids are unique per process,
// unguessable enough not to collide across restarts, and cheap (one atomic
// add, no RNG lock).
type RequestIDs struct {
	salt uint64
	seq  atomic.Uint64
}

// NewRequestIDs builds a generator salted with salt (e.g. the process start
// time; a fixed salt gives reproducible ids in tests).
func NewRequestIDs(salt uint64) *RequestIDs {
	return &RequestIDs{salt: salt}
}

// Next returns the next request id (16 hex digits: the hash of the salt and
// the 1-based sequence number), for headers, logs and the request's draws.
func (r *RequestIDs) Next() string {
	return fmt.Sprintf("%016x", xrand.Hash64(r.salt, r.seq.Add(1)))
}

// ctxKey keys the obs values stored in a request context.
type ctxKey int

const ridKey ctxKey = 0

// WithRequestID returns ctx carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey, id)
}

// RequestID returns the request id stored in ctx ("" when absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey).(string)
	return id
}

// RequestLogger returns l with its handler wrapped so that a record logged
// with a context carrying a request id (the …Context methods) gets a
// request_id attribute, last, when it is written. The id rides the context
// alone, so a request needs no logger of its own.
func RequestLogger(l *slog.Logger) *slog.Logger {
	return slog.New(requestIDHandler{l.Handler()})
}

type requestIDHandler struct{ slog.Handler }

func (h requestIDHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := RequestID(ctx); id != "" {
		r.AddAttrs(slog.String("request_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h requestIDHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return requestIDHandler{h.Handler.WithAttrs(attrs)}
}

func (h requestIDHandler) WithGroup(name string) slog.Handler {
	return requestIDHandler{h.Handler.WithGroup(name)}
}
