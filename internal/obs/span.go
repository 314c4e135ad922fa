package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// This file is the trace recorder: the span model captures where a *request*
// spent its wall-clock time across the fleet — queueing, breaker checks,
// backoff sleeps, the local CSR segment, forward RPCs, hedge waits,
// anti-entropy pulls — and each local_route span carries the per-hop
// trajectory its walk took (phase.go). Ids are pure hashes (bit-identical at
// any GOMAXPROCS, like request ids), so two runs of the same workload produce
// the same trace and span ids and cmd/tracestitch can merge the JSONL of
// every daemon into one tree per request.

// Span kinds emitted by the serving layer. Kind is an open string — these
// constants are the vocabulary cmd/tracestitch and the per-phase histograms
// know about, but a PhaseSpan with a novel kind still stitches.
const (
	// SpanRequest is the root span of a trace on its entry daemon: the whole
	// server-side handling of one routed query.
	SpanRequest = "request"
	// SpanHop is the root span a *forwarding* daemon records for each hop
	// (a frame on a hop stream, or a JSON POST /cluster/hop; likewise each
	// /cluster/replicate and /cluster/segment) it serves; its parent is the
	// caller's forward_rpc span on another daemon.
	SpanHop = "hop"
	// SpanQueueWait is time spent in the admission pool before a worker slot
	// was acquired.
	SpanQueueWait = "queue_wait"
	// SpanBreaker is a circuit-breaker rejection: the request was refused
	// without routing (Detail carries the breaker state).
	SpanBreaker = "breaker"
	// SpanRetryBackoff is one backoff sleep between routing attempts.
	SpanRetryBackoff = "retry_backoff"
	// SpanLocalRoute is one engine episode (or partial CSR segment) executed
	// on the local shard; its Hops are the vertices that walk visited.
	SpanLocalRoute = "local_route"
	// SpanForwardRPC is one hop-frame round trip on a hop stream (or one
	// replicate/segment ship over HTTP) to a peer, named in Peer.
	SpanForwardRPC = "forward_rpc"
	// SpanHedgeWait is the armed hedge delay: from the primary forward's
	// launch until the hedged attempt fired.
	SpanHedgeWait = "hedge_wait"
	// SpanAntiEntropy is one anti-entropy round on the puller (children are
	// the per-segment forward_rpc pulls).
	SpanAntiEntropy = "anti_entropy"
)

// PhaseSpan is one timed phase of a distributed request: a node of the
// per-trace tree cmd/tracestitch reconstructs. Start is wall-clock
// (UnixNano) — the fleet runs on one box in tests and CI, and stitching
// tolerates skew by trusting the parent/child ids, not the clocks.
type PhaseSpan struct {
	// Trace is the 32-hex-digit trace id shared by every span of one request
	// across all daemons.
	Trace string `json:"trace"`
	// ID is the 16-hex-digit span id, a pure hash of (trace, sequence).
	ID string `json:"span"`
	// Parent is the id of the enclosing span; "" marks a trace root.
	Parent string `json:"parent,omitempty"`
	// Service identifies the daemon that recorded the span (its advertise
	// address in a cluster, "local" standalone).
	Service string `json:"service"`
	// Kind is the phase name (SpanQueueWait, SpanForwardRPC, ...).
	Kind string `json:"kind"`
	// Start is the span's wall-clock start in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Peer names the target of a forward_rpc span.
	Peer string `json:"peer,omitempty"`
	// Detail carries a small free-form annotation (breaker state, hedge
	// index, segment id, the X-Request-ID on a request root, fault specs on
	// a local_route).
	Detail string `json:"detail,omitempty"`
	// Err is the failure that ended the span, "" on success.
	Err string `json:"err,omitempty"`
	// Hops is the trajectory of a local_route span's walk, at most MaxHops
	// long (a cut is noted in Detail).
	Hops []Span `json:"hops,omitempty"`
}

// TraceHeader is the header that propagates trace context on the cluster's
// HTTP RPCs (the JSON POST /cluster/hop, /cluster/replicate,
// /cluster/segment), spelled like W3C trace-context so standard tooling
// recognizes the shape; a hop frame carries the same value as a field.
const TraceHeader = "Traceparent"

// FormatTraceparent encodes (trace, parent span) as a W3C-style
// `00-<trace>-<span>-01` header value.
func FormatTraceparent(trace, span string) string {
	return "00-" + trace + "-" + span + "-01"
}

// ParseTraceparent decodes a TraceHeader value. ok is false when the value
// is absent or malformed — the receiving daemon then simply records no
// spans for the request, it never fails the RPC over a bad header. As W3C
// trace-context requires, the flags are two hex digits and an all-zero trace
// or span id is invalid.
func ParseTraceparent(v string) (trace, span string, ok bool) {
	// 00-{32 hex}-{16 hex}-{2 hex} → 2+1+32+1+16+1+2 = 55 bytes.
	if len(v) != 55 || v[:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return "", "", false
	}
	trace, span = v[3:35], v[36:52]
	if !isHex(trace) || !isHex(span) || !isHex(v[53:]) ||
		strings.Trim(trace, "0") == "" || strings.Trim(span, "0") == "" {
		return "", "", false
	}
	return trace, span, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// HashString folds a string into the word-based mixer (8 bytes per word,
// length-salted), so span-id derivation can mix service names and trace ids
// without allocating.
func HashString(s string) uint64 {
	x := uint64(len(s))
	var word uint64
	for i := 0; i < len(s); i++ {
		word = word<<8 | uint64(s[i])
		if (i+1)%8 == 0 {
			x = Hash64(x, word)
			word = 0
		}
	}
	if len(s)%8 != 0 {
		x = Hash64(x, word)
	}
	return x
}

// DistTraceID derives the 128-bit (32 hex digit) trace id of the seq-th
// sampled request of a process salted with salt — two independent Hash64
// lanes, so the id is a pure function of (salt, seq) and bit-identical
// across runs and GOMAXPROCS settings.
func DistTraceID(salt, seq uint64) string {
	return fmt.Sprintf("%016x%016x", Hash64(salt, seq, 0xd15c), Hash64(salt, seq, 0xd15d))
}

// SpanID derives the 64-bit (16 hex digit) id of the n-th span a service
// records for a trace. Distinct services hash distinct lanes, so two
// daemons participating in one trace never collide, and the same (trace,
// service, n) triple always yields the same id — the determinism the
// trace-propagation tests assert.
func SpanID(trace, service string, n uint64) string {
	return fmt.Sprintf("%016x", Hash64(HashString(trace), HashString(service), n))
}

// SpanLogConfig tunes a SpanLog.
type SpanLogConfig struct {
	// Service stamps every span with the recording daemon's identity.
	Service string
	// Seed salts trace ids and the sampling decision (pin it in tests for
	// reproducible ids; daemons use the request-id salt).
	Seed uint64
	// SampleRate is the fraction of entry requests that start a trace, in
	// [0, 1]. Requests arriving with a Traceparent header are always
	// recorded — the entry daemon's decision propagates.
	SampleRate float64
	// Capacity bounds the completed-span ring (default 8192). When full,
	// new spans overwrite the oldest — recent traces win, and the dropped
	// counter records the loss.
	Capacity int
}

// SpanLog is a daemon's bounded ring of completed PhaseSpans plus the
// deterministic sampling and id derivation for new traces. All methods are
// nil-safe: a daemon with tracing off carries a nil *SpanLog and every
// record site stays a no-op without branching at the caller.
type SpanLog struct {
	cfg SpanLogConfig

	mu        sync.Mutex
	ring      []PhaseSpan
	next      int  // ring write cursor
	wrapped   bool // ring has overwritten at least one span
	published int64
	dropped   int64
}

// NewSpanLog builds a span log; capacity ≤ 0 selects the default.
func NewSpanLog(cfg SpanLogConfig) *SpanLog {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8192
	}
	if cfg.Service == "" {
		cfg.Service = "local"
	}
	// A fleet commonly shares one -seed (same snapshot, same salt), but two
	// daemons at the same request sequence must not mint the same trace id —
	// the service name folds into the salt so each daemon ids its own lane.
	cfg.Seed = Hash64(cfg.Seed, HashString(cfg.Service))
	return &SpanLog{cfg: cfg, ring: make([]PhaseSpan, cfg.Capacity)}
}

// Service returns the identity stamped on recorded spans ("" when nil).
func (l *SpanLog) Service() string {
	if l == nil {
		return ""
	}
	return l.cfg.Service
}

// Sampled reports whether the seq-th entry request starts a trace — a pure
// hash of (seed, seq) against the sample rate, never an RNG.
func (l *SpanLog) Sampled(seq uint64) bool {
	if l == nil || l.cfg.SampleRate <= 0 {
		return false
	}
	if l.cfg.SampleRate >= 1 {
		return true
	}
	return hashFloat(l.cfg.Seed, seq, 0x5a30) < l.cfg.SampleRate
}

// TraceID derives the trace id of the seq-th entry request.
func (l *SpanLog) TraceID(seq uint64) string {
	if l == nil {
		return ""
	}
	return DistTraceID(l.cfg.Seed, seq)
}

// InternalTraceID derives the trace id of the seq-th *internal* trace — work
// the daemon starts on its own behalf (anti-entropy rounds) rather than for
// an entry request. The lane is salted apart from TraceID so the two
// sequences can never collide even at equal seq.
func (l *SpanLog) InternalTraceID(seq uint64) string {
	if l == nil {
		return ""
	}
	return DistTraceID(Hash64(l.cfg.Seed, 0xae17), seq)
}

// Publish appends one completed span to the ring.
func (l *SpanLog) Publish(sp PhaseSpan) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.wrapped {
		l.dropped++
	}
	l.ring[l.next] = sp
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.wrapped = true
	}
	l.published++
	l.mu.Unlock()
}

// Snapshot returns the buffered spans, oldest first.
func (l *SpanLog) Snapshot() []PhaseSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.wrapped {
		return append([]PhaseSpan(nil), l.ring[:l.next]...)
	}
	out := make([]PhaseSpan, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}

// WriteJSONL streams the buffered spans as one JSON object per line — the
// format GET /debug/trace serves, -trace-out writes and cmd/tracestitch
// consumes.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range l.Snapshot() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SpanLogStats counts the log's activity for /metrics.
type SpanLogStats struct {
	Published int64 `json:"published"`
	Dropped   int64 `json:"dropped"`
	Buffered  int   `json:"buffered"`
}

// Stats reports the log's counters (zero when nil).
func (l *SpanLog) Stats() SpanLogStats {
	if l == nil {
		return SpanLogStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	buffered := l.next
	if l.wrapped {
		buffered = len(l.ring)
	}
	return SpanLogStats{Published: l.published, Dropped: l.dropped, Buffered: buffered}
}
