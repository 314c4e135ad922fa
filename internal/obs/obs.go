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
//     never installed as the slog default — plus request-scoped loggers
//     carried in a context. The daemon edge generates a request id
//     (RequestIDs), returns it in an X-Request-ID header and threads it via
//     WithRequestID / WithLogger so every slog line of the request carries
//     the same id.
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

// Next returns the next request: the 1-based sequence number (services use
// it as a deterministic per-request seed) and the id string for headers and
// logs.
func (r *RequestIDs) Next() (seq uint64, id string) {
	seq = r.seq.Add(1)
	return seq, fmt.Sprintf("%016x", Hash64(r.salt, seq))
}

// ctxKey keys the obs values stored in a request context.
type ctxKey int

const (
	ridKey ctxKey = iota
	loggerKey
)

// WithRequestID returns ctx carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey, id)
}

// RequestID returns the request id stored in ctx ("" when absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey).(string)
	return id
}

// WithLogger returns ctx carrying a request-scoped logger (typically
// logger.With("request_id", id)).
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// Logger returns the request-scoped logger stored in ctx, falling back to
// slog.Default, so callers can log without checking how they were invoked.
func Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	return slog.Default()
}

// Hash64 mixes words into one well-distributed 64-bit value (splitmix64
// finalization) — the pure-hash determinism idiom shared with packages
// faults and serve, exported here so observability consumers (sampling,
// trace ids, request ids) agree on one mixer.
func Hash64(vals ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// hashFloat maps the mixed words to a uniform value in [0, 1).
func hashFloat(vals ...uint64) float64 {
	return float64(Hash64(vals...)>>11) * 0x1p-53
}
