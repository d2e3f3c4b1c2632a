// Package obs is tyrd's request-scoped observability layer: trace IDs,
// span trees, and an always-on flight recorder linking service requests to
// engine traces.
//
// Every observed request gets a trace ID (returned in the Tyr-Trace-Id
// response header and stamped on its slog lines) and a span tree covering
// the request's stages — admission, queue wait, workload resolution,
// compile/cache lookup, engine run — with the engine-run span carrying the
// simulated cycle count and tag-pool peak. Completed requests land in a
// bounded ring (the flight recorder, flight.go), each record flagged with
// why it is notable: failed, slow, or sampled. Sampling is decided when the
// request starts (every Config.SampleEvery'th request), and only a sampled
// request captures its engine event stream, through the engines'
// trace.Config.Tracer hook. Capture made a short run about 1.3 times as
// long, so an unsampled request never borrows a capture ring and its
// engines run untraced. A slow or 504'd request therefore always keeps
// its queue wait, compile cost, error and span tree, and keeps its
// cycle-level engine behavior too when it was sampled, dumpable as a
// tyr-obs/v1 document whose embedded engine trace round-trips through the
// Chrome exporter.
//
// The package is stdlib-only, like everything else in this repository.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Config sizes the flight recorder. Zero values select defaults.
type Config struct {
	// RingSize bounds retained completed-request records (default 64).
	RingSize int
	// SlowThreshold marks a request slow: its record is flagged "slow"
	// (default 500ms). It carries an engine capture only if it was also
	// sampled; slowness is known only once the run is over.
	SlowThreshold time.Duration
	// SampleEvery captures the engine trace of every Nth observed request,
	// counted from the first (default 64; 1 captures every request;
	// negative captures none). Unsampled requests run their engines
	// untraced, whether or not they turn out slow or failed.
	SampleEvery int
	// TraceEvents caps each request's engine-trace capture ring (default
	// 8192 events); when a run emits more, the oldest are dropped and the
	// capture holds the tail of the stream.
	TraceEvents int
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 500 * time.Millisecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
	if c.TraceEvents <= 0 {
		c.TraceEvents = 8192
	}
	return c
}

// idSeq breaks ties when the system's entropy source fails; IDs must stay
// unique within a process or the flight recorder's index would collide.
var idSeq atomic.Uint64

// ValidTraceID reports whether s is acceptable as an externally supplied
// trace ID: 8-64 lowercase hex digits. Anything else (empty, hostile
// header junk, log-breaking characters) is rejected and the receiver mints
// its own ID instead.
func ValidTraceID(s string) bool {
	if len(s) < 8 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewTraceID returns a fresh 16-hex-digit request trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := idSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// SpanID indexes a span within its request's span tree.
type SpanID int

// NoSpan is the nil span: Start on a nil trace returns it, and every
// span operation on it is a no-op.
const NoSpan SpanID = -1

// RootSpan is the request's root span, created by FlightRecorder.Start.
const RootSpan SpanID = 0

// Span is one timed stage of a request. Offsets are nanoseconds from the
// request's start, so a span tree is self-contained and diffable.
type Span struct {
	Name string `json:"name"`
	// Parent is the index of the parent span (-1 for the root).
	Parent  SpanID           `json:"parent"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// RequestTrace is one in-flight request being observed. Methods are
// nil-safe: a nil *RequestTrace no-ops everywhere, so unobserved code
// paths need no branching. A RequestTrace is touched from the request
// goroutine and the pool workers running its jobs, and a sweep's cells
// open spans from several workers at once, so a mutex guards it.
type RequestTrace struct {
	fr      *FlightRecorder
	id      string
	method  string
	path    string
	start   time.Time
	sampled bool

	mu    sync.Mutex
	spans []Span
	rec   *trace.Recorder
	err   string
}

// ID returns the request's trace ID ("" on a nil trace).
func (t *RequestTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a named child span under parent and returns its ID.
func (t *RequestTrace) StartSpan(name string, parent SpanID) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name:    name,
		Parent:  parent,
		StartNS: time.Since(t.start).Nanoseconds(),
		EndNS:   -1,
	})
	return SpanID(len(t.spans) - 1)
}

// EndSpan closes a span and returns its duration (0 on the nil trace or
// an invalid ID, so callers can feed the result straight to a histogram).
func (t *RequestTrace) EndSpan(id SpanID) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return 0
	}
	sp := &t.spans[id]
	sp.EndNS = time.Since(t.start).Nanoseconds()
	return time.Duration(sp.EndNS - sp.StartNS)
}

// SetAttr attaches a numeric attribute to a span (cycles, tag-pool peak,
// cache hit flags, ...).
func (t *RequestTrace) SetAttr(id SpanID, key string, val int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]int64, 4)
	}
	sp.Attrs[key] = val
}

// SetError records the request's error string for the flight record.
func (t *RequestTrace) SetError(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.err = msg
	t.mu.Unlock()
}

// Tracer returns the request's engine-trace capture recorder, borrowing
// it from the flight recorder's pool on first use. It returns nil unless
// the request was sampled when it started, and on a nil trace; the engines
// treat nil as tracing disabled, so an unsampled request pays nothing for
// capture. Handlers attach the result unconditionally.
func (t *RequestTrace) Tracer() *trace.Recorder {
	if t == nil || !t.sampled {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec == nil {
		t.rec = t.fr.recorder()
	}
	return t.rec
}

// ctxKey is the context key type for the request trace.
type ctxKey struct{}

// NewContext returns ctx carrying the request trace.
func NewContext(ctx context.Context, t *RequestTrace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the request trace carried by ctx, or nil.
func FromContext(ctx context.Context) *RequestTrace {
	t, _ := ctx.Value(ctxKey{}).(*RequestTrace)
	return t
}
