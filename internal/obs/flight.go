package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// DumpVersion is the schema identifier of flight-recorder dumps.
const DumpVersion = "tyr-obs/v1"

// Retention reasons: why a flight record is notable. A record with no
// reason is a healthy, fast, unsampled request.
const (
	RetainFailed  = "failed"
	RetainSlow    = "slow"
	RetainSampled = "sampled"
)

// EngineCapture is a retained engine event stream: the raw events (so the
// critical-path profiler can replay them — Chrome JSON deliberately drops
// the emit/deliver dependency edges the profiler needs) plus the metadata
// to label them. Chrome is filled only in dumps, by re-exporting the
// events through trace.ExportChrome.
type EngineCapture struct {
	Meta    trace.Meta      `json:"meta"`
	Events  []trace.Event   `json:"events"`
	Dropped uint64          `json:"dropped"`
	Chrome  json.RawMessage `json:"chrome,omitempty"`
}

// RequestRecord is one completed request in the flight ring. Records are
// immutable once published: handlers hand out shared pointers.
type RequestRecord struct {
	TraceID    string    `json:"trace_id"`
	Method     string    `json:"method"`
	Path       string    `json:"path"`
	Status     int       `json:"status"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	// Retained says why the record is notable: "failed", "slow" or
	// "sampled", in that precedence; empty for a healthy, fast, unsampled
	// request. Engine is set only on sampled requests that reached an
	// engine, so a failed or slow record may carry none.
	Retained string         `json:"retained,omitempty"`
	Error    string         `json:"error,omitempty"`
	Spans    []Span         `json:"spans"`
	Engine   *EngineCapture `json:"engine,omitempty"`
}

// FlightRecorder is the always-on ring of the last N completed request
// records. Recording a request costs a handful of timestamps and, for a
// sampled request's engine capture, one pooled fixed-size ring buffer —
// nothing grows with traffic.
type FlightRecorder struct {
	cfg  Config
	seq  atomic.Uint64 // observed requests started (drives sampling)
	pool sync.Pool     // *trace.Recorder, capacity cfg.TraceEvents

	mu   sync.Mutex
	ring []*RequestRecord // fixed capacity, oldest overwritten
	next int
	full bool
	byID map[string]*RequestRecord
}

// NewFlightRecorder builds a recorder with cfg (zero values defaulted).
func NewFlightRecorder(cfg Config) *FlightRecorder {
	cfg = cfg.withDefaults()
	fr := &FlightRecorder{
		cfg:  cfg,
		ring: make([]*RequestRecord, cfg.RingSize),
		byID: make(map[string]*RequestRecord, cfg.RingSize),
	}
	fr.pool.New = func() any { return trace.NewRecorder(cfg.TraceEvents) }
	return fr
}

// Config returns the recorder's effective (defaulted) configuration.
func (fr *FlightRecorder) Config() Config { return fr.cfg }

// recorder takes a reset capture ring from the pool.
func (fr *FlightRecorder) recorder() *trace.Recorder {
	rec := fr.pool.Get().(*trace.Recorder)
	rec.Reset()
	rec.SetMeta(trace.Meta{})
	return rec
}

// Start opens a request trace with a fresh trace ID and its root span.
func (fr *FlightRecorder) Start(method, path string) *RequestTrace {
	return fr.StartWithID(method, path, "")
}

// StartWithID opens a request trace adopting a caller-supplied trace ID,
// so a client or proxy that mints its own Tyr-Trace-Id can join its logs
// to the flight record. An empty or invalid ID falls back to a fresh one.
func (fr *FlightRecorder) StartWithID(method, path, id string) *RequestTrace {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	n := fr.seq.Add(1)
	sampled := fr.cfg.SampleEvery > 0 && (n-1)%uint64(fr.cfg.SampleEvery) == 0
	t := &RequestTrace{
		fr:      fr,
		id:      id,
		method:  method,
		path:    path,
		start:   time.Now(),
		sampled: sampled,
		spans:   []Span{{Name: "request", Parent: -1, StartNS: 0, EndNS: -1}},
	}
	return t
}

// Finish closes the request trace, names its retention reason, publishes
// the record into the ring, and returns it. The reason is "failed" for a
// 429 or 5xx, "slow" past the threshold, "sampled" otherwise for a
// sampled request. A sampled request's engine capture is copied into the
// record and its recorder returns to the pool.
func (fr *FlightRecorder) Finish(t *RequestTrace, status int) *RequestRecord {
	if t == nil {
		return nil
	}
	dur := time.Since(t.start)

	t.mu.Lock()
	t.spans[RootSpan].EndNS = dur.Nanoseconds()
	// Close any span left open by an error path so every record's tree
	// is complete.
	for i := range t.spans {
		if t.spans[i].EndNS < 0 {
			t.spans[i].EndNS = dur.Nanoseconds()
		}
	}
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	rec := t.rec
	t.rec = nil
	errMsg := t.err
	t.mu.Unlock()

	reason := ""
	switch {
	case status == 429 || status >= 500:
		reason = RetainFailed
	case dur >= fr.cfg.SlowThreshold:
		reason = RetainSlow
	case t.sampled:
		reason = RetainSampled
	}

	r := &RequestRecord{
		TraceID:    t.id,
		Method:     t.method,
		Path:       t.path,
		Status:     status,
		Start:      t.start,
		DurationNS: dur.Nanoseconds(),
		Retained:   reason,
		Error:      errMsg,
		Spans:      spans,
	}
	// Only a sampled request holds a recorder. One with no recorded events
	// (e.g. shed before it reached an engine) has no engine section.
	if rec != nil {
		if rec.Seq() > 0 {
			r.Engine = &EngineCapture{
				Meta:    *rec.Meta(),
				Events:  rec.Events(),
				Dropped: rec.Dropped(),
			}
		}
		fr.pool.Put(rec)
	}

	fr.mu.Lock()
	if old := fr.ring[fr.next]; old != nil {
		delete(fr.byID, old.TraceID)
	}
	fr.ring[fr.next] = r
	fr.byID[r.TraceID] = r
	fr.next++
	if fr.next == len(fr.ring) {
		fr.next = 0
		fr.full = true
	}
	fr.mu.Unlock()
	return r
}

// Snapshot returns the retained records, newest first.
func (fr *FlightRecorder) Snapshot() []*RequestRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := fr.next
	if fr.full {
		n = len(fr.ring)
	}
	out := make([]*RequestRecord, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the most recent write.
		idx := fr.next - i
		if idx < 0 {
			idx += len(fr.ring)
		}
		out = append(out, fr.ring[idx])
	}
	return out
}

// Get returns the record for a trace ID, or nil if it has aged out.
func (fr *FlightRecorder) Get(id string) *RequestRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.byID[id]
}

// Dump is the tyr-obs/v1 document: the flight ring rendered for export,
// every engine capture carrying its events re-exported as an embedded
// Chrome trace (loadable in Perfetto, checkable with
// trace.ValidateChromeJSON).
type Dump struct {
	Version  string           `json:"version"`
	Requests []*RequestRecord `json:"requests"`
}

// ChromeExport re-exports a capture's events through the Chrome exporter.
func (c *EngineCapture) ChromeExport() (json.RawMessage, error) {
	rec := trace.FromEvents(c.Meta, c.Events)
	var buf bytes.Buffer
	if err := trace.ExportChrome(&buf, rec); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// WriteDump renders records as an indented tyr-obs/v1 JSON document.
func WriteDump(w io.Writer, records []*RequestRecord) error {
	doc := Dump{Version: DumpVersion, Requests: make([]*RequestRecord, 0, len(records))}
	for _, r := range records {
		if r.Engine != nil {
			chrome, err := r.Engine.ChromeExport()
			if err != nil {
				return fmt.Errorf("obs: exporting engine trace for %s: %w", r.TraceID, err)
			}
			view := *r
			eng := *r.Engine
			eng.Chrome = chrome
			view.Engine = &eng
			r = &view
		}
		doc.Requests = append(doc.Requests, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadDump parses a tyr-obs/v1 document, rejecting unknown versions.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: decoding dump: %w", err)
	}
	if d.Version != DumpVersion {
		return nil, fmt.Errorf("obs: unsupported dump version %q (want %s)", d.Version, DumpVersion)
	}
	return &d, nil
}

// Validate structurally checks a parsed dump: every record carries a trace
// ID and a rooted, well-parented, closed span tree, and every engine
// capture's Chrome export (embedded or regenerated) passes the Chrome
// trace validator.
func (d *Dump) Validate() error {
	for i, r := range d.Requests {
		if r.TraceID == "" {
			return fmt.Errorf("obs: request %d has no trace_id", i)
		}
		if len(r.Spans) == 0 {
			return fmt.Errorf("obs: request %s has no spans", r.TraceID)
		}
		if r.Spans[0].Parent != -1 {
			return fmt.Errorf("obs: request %s span 0 is not a root (parent %d)", r.TraceID, r.Spans[0].Parent)
		}
		for j, sp := range r.Spans {
			if j > 0 && (sp.Parent < 0 || int(sp.Parent) >= len(r.Spans) || int(sp.Parent) == j) {
				return fmt.Errorf("obs: request %s span %d (%s) has bad parent %d", r.TraceID, j, sp.Name, sp.Parent)
			}
			if sp.EndNS < sp.StartNS {
				return fmt.Errorf("obs: request %s span %d (%s) is unclosed or inverted", r.TraceID, j, sp.Name)
			}
		}
		if r.Engine != nil {
			chrome := r.Engine.Chrome
			if chrome == nil {
				c, err := r.Engine.ChromeExport()
				if err != nil {
					return fmt.Errorf("obs: request %s: %w", r.TraceID, err)
				}
				chrome = c
			}
			if err := trace.ValidateChromeJSON(chrome); err != nil {
				return fmt.Errorf("obs: request %s embedded engine trace: %w", r.TraceID, err)
			}
		}
	}
	return nil
}
