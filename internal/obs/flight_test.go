package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// quiet returns a config that retains nothing unless a test forces it.
func quiet() Config {
	return Config{RingSize: 8, SlowThreshold: time.Hour, SampleEvery: -1, TraceEvents: 64}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs not 16 hex digits: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("trace IDs collide: %q", a)
	}
}

func TestNilRequestTraceIsSafe(t *testing.T) {
	var rt *RequestTrace
	if rt.ID() != "" {
		t.Error("nil ID not empty")
	}
	id := rt.StartSpan("x", RootSpan)
	if id != NoSpan {
		t.Errorf("nil StartSpan = %d, want NoSpan", id)
	}
	if d := rt.EndSpan(id); d != 0 {
		t.Errorf("nil EndSpan = %v", d)
	}
	rt.SetAttr(id, "k", 1)
	rt.SetError("boom")
	if rt.Tracer() != nil {
		t.Error("nil Tracer not nil")
	}
	fr := NewFlightRecorder(quiet())
	if fr.Finish(nil, 200) != nil {
		t.Error("Finish(nil) not nil")
	}
}

func TestSpanTreeAndFinish(t *testing.T) {
	fr := NewFlightRecorder(quiet())
	rt := fr.Start("POST", "/v1/run")
	if rt.ID() == "" {
		t.Fatal("no trace ID")
	}
	q := rt.StartSpan("queue", RootSpan)
	rt.EndSpan(q)
	run := rt.StartSpan("run", RootSpan)
	rt.SetAttr(run, "cycles", 42)
	// run is left open: Finish must close it.

	rec := fr.Finish(rt, 200)
	if rec == nil || rec.TraceID != rt.ID() {
		t.Fatalf("Finish record = %+v", rec)
	}
	if rec.Retained != "" || rec.Engine != nil {
		t.Errorf("healthy fast request retained %q engine=%v", rec.Retained, rec.Engine)
	}
	if len(rec.Spans) != 3 || rec.Spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", rec.Spans)
	}
	for i, sp := range rec.Spans {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %d (%s) not closed: %+v", i, sp.Name, sp)
		}
	}
	if rec.Spans[2].Attrs["cycles"] != 42 {
		t.Errorf("run span attrs = %v", rec.Spans[2].Attrs)
	}
	if got := fr.Get(rt.ID()); got != rec {
		t.Errorf("Get(%s) = %v, want the finished record", rt.ID(), got)
	}
}

// fireInto records a minimal but chrome-exportable engine stream into the
// request's recorder, as an engine would, and reports whether the request
// had one (only sampled requests do).
func fireInto(rt *RequestTrace) bool {
	rec := rt.Tracer()
	if rec == nil {
		return false
	}
	rec.SetMeta(trace.Meta{Program: "p", System: "tyr", Blocks: []string{"root"}})
	rec.Record(trace.Event{Kind: trace.KindFire, Cycle: 1, Node: 0, Block: 0})
	rec.Record(trace.Event{Kind: trace.KindFire, Cycle: 2, Node: 0, Block: 0})
	return true
}

func TestRetentionReasons(t *testing.T) {
	t.Run("failed beats slow", func(t *testing.T) {
		cfg := quiet()
		cfg.SlowThreshold = time.Nanosecond // everything is "slow"
		cfg.SampleEvery = 1
		fr := NewFlightRecorder(cfg)
		rt := fr.Start("POST", "/v1/run")
		fireInto(rt)
		rec := fr.Finish(rt, 429)
		if rec.Retained != RetainFailed || rec.Engine == nil {
			t.Errorf("retained %q engine=%v, want failed with capture", rec.Retained, rec.Engine)
		}
	})
	t.Run("slow", func(t *testing.T) {
		cfg := quiet()
		cfg.SlowThreshold = time.Nanosecond
		cfg.SampleEvery = 1
		fr := NewFlightRecorder(cfg)
		rt := fr.Start("POST", "/v1/run")
		fireInto(rt)
		time.Sleep(time.Millisecond)
		rec := fr.Finish(rt, 200)
		if rec.Retained != RetainSlow || rec.Engine == nil {
			t.Errorf("retained %q engine=%v, want slow with capture", rec.Retained, rec.Engine)
		}
	})
	t.Run("sampled", func(t *testing.T) {
		cfg := quiet()
		cfg.SampleEvery = 2
		fr := NewFlightRecorder(cfg)
		for i := 0; i < 4; i++ {
			rt := fr.Start("POST", "/v1/run")
			captured := fireInto(rt)
			rec := fr.Finish(rt, 200)
			wantSampled := i%2 == 0
			if got := rec.Retained == RetainSampled; got != wantSampled {
				t.Errorf("request %d: retained %q, want sampled=%v", i, rec.Retained, wantSampled)
			}
			if captured != wantSampled || (rec.Engine != nil) != wantSampled {
				t.Errorf("request %d: recorder=%v engine=%v, want both only when sampled=%v", i, captured, rec.Engine != nil, wantSampled)
			}
		}
	})
	t.Run("failed without events keeps reason, no capture", func(t *testing.T) {
		cfg := quiet()
		cfg.SampleEvery = 1
		fr := NewFlightRecorder(cfg)
		rt := fr.Start("POST", "/v1/run")
		rec := fr.Finish(rt, 503)
		if rec.Retained != RetainFailed || rec.Engine != nil {
			t.Errorf("retained %q engine=%v, want failed with nil capture", rec.Retained, rec.Engine)
		}
	})
	t.Run("unsampled slow and failed keep reason and spans, borrow no recorder", func(t *testing.T) {
		cfg := quiet()
		cfg.SlowThreshold = time.Nanosecond
		fr := NewFlightRecorder(cfg)
		borrowed := 0
		fr.pool.New = func() any {
			borrowed++
			return trace.NewRecorder(cfg.TraceEvents)
		}
		for _, tc := range []struct {
			status int
			reason string
		}{{200, RetainSlow}, {504, RetainFailed}} {
			rt := fr.Start("POST", "/v1/run")
			run := rt.StartSpan("run", RootSpan)
			if fireInto(rt) {
				t.Errorf("%d: unsampled request got an engine recorder", tc.status)
			}
			rt.SetAttr(run, "cycles", 42)
			rt.SetError("boom")
			time.Sleep(time.Millisecond)
			rt.EndSpan(run)
			rec := fr.Finish(rt, tc.status)
			if rec.Retained != tc.reason || rec.Engine != nil {
				t.Errorf("%d: retained %q engine=%v, want %s with no capture", tc.status, rec.Retained, rec.Engine, tc.reason)
			}
			if len(rec.Spans) != 2 || rec.Spans[1].Name != "run" || rec.Spans[1].Attrs["cycles"] != 42 || rec.Error != "boom" {
				t.Errorf("%d: record lost its span tree or error: spans %+v error %q", tc.status, rec.Spans, rec.Error)
			}
		}
		if borrowed != 0 {
			t.Errorf("unsampled requests borrowed %d recorders, want 0", borrowed)
		}
	})
}

func TestRingEviction(t *testing.T) {
	cfg := quiet()
	cfg.RingSize = 2
	fr := NewFlightRecorder(cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		rt := fr.Start("POST", "/v1/run")
		ids = append(ids, rt.ID())
		fr.Finish(rt, 200)
	}
	snap := fr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	// Newest first.
	if snap[0].TraceID != ids[2] || snap[1].TraceID != ids[1] {
		t.Errorf("snapshot order = %s,%s want %s,%s", snap[0].TraceID, snap[1].TraceID, ids[2], ids[1])
	}
	if fr.Get(ids[0]) != nil {
		t.Error("evicted record still reachable by ID")
	}
	if fr.Get(ids[2]) == nil {
		t.Error("newest record not reachable by ID")
	}
}

func TestDumpRoundTripAndValidate(t *testing.T) {
	cfg := quiet()
	cfg.SampleEvery = 1 // retain everything
	fr := NewFlightRecorder(cfg)
	rt := fr.Start("POST", "/v1/run")
	run := rt.StartSpan("run", RootSpan)
	fireInto(rt)
	rt.EndSpan(run)
	fr.Finish(rt, 200)

	var buf bytes.Buffer
	if err := WriteDump(&buf, fr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("round-tripped dump invalid: %v", err)
	}
	if len(d.Requests) != 1 || d.Requests[0].Engine == nil {
		t.Fatalf("dump = %+v", d.Requests)
	}
	eng := d.Requests[0].Engine
	if len(eng.Events) != 2 {
		t.Errorf("events = %d, want 2", len(eng.Events))
	}
	if eng.Chrome == nil {
		t.Error("dump did not embed the Chrome export")
	}
	if err := trace.ValidateChromeJSON(eng.Chrome); err != nil {
		t.Errorf("embedded Chrome trace invalid: %v", err)
	}
	// The in-memory record must not have been mutated by the dump.
	if fr.Snapshot()[0].Engine.Chrome != nil {
		t.Error("WriteDump mutated the retained record")
	}
}

func TestReadDumpRejectsUnknownVersion(t *testing.T) {
	_, err := ReadDump(strings.NewReader(`{"version":"tyr-obs/v0","requests":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported dump version") {
		t.Fatalf("err = %v, want unsupported-version", err)
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	mk := func(spans []Span) *Dump {
		return &Dump{Version: DumpVersion, Requests: []*RequestRecord{{
			TraceID: "abc", Spans: spans,
		}}}
	}
	cases := []struct {
		name  string
		dump  *Dump
		field string
	}{
		{"no spans", mk(nil), "no spans"},
		{"bad root", mk([]Span{{Name: "request", Parent: 0}}), "not a root"},
		{"bad parent", mk([]Span{{Name: "request", Parent: -1}, {Name: "x", Parent: 9}}), "bad parent"},
		{"unclosed", mk([]Span{{Name: "request", Parent: -1, StartNS: 5, EndNS: 4}}), "unclosed"},
		{"no id", &Dump{Version: DumpVersion, Requests: []*RequestRecord{{}}}, "no trace_id"},
	}
	for _, tc := range cases {
		err := tc.dump.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.field)
		}
	}
}
