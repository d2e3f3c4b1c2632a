package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fetchDump pulls one request's flight record from the debug endpoint.
func fetchDump(t *testing.T, ts *httptest.Server, id string) *obs.Dump {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug fetch for %s: status %d", id, resp.StatusCode)
	}
	d, err := obs.ReadDump(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func spanNames(r *obs.RequestRecord) map[string]obs.Span {
	out := make(map[string]obs.Span, len(r.Spans))
	for _, sp := range r.Spans {
		out[sp.Name] = sp
	}
	return out
}

// TestSlowRequestFlightRecord is the flight recorder's acceptance path: a
// sampled request marked slow (threshold 1ns, so deliberately every
// request is; sampling every request) must be retrievable from
// /v1/debug/requests/{id} with a complete span tree (queue -> compile ->
// run), run-span cycle/tag attributes, and a full engine capture whose
// embedded Chrome trace validates.
func TestSlowRequestFlightRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Flight: obs.Config{SlowThreshold: time.Nanosecond, SampleEvery: 1},
	})

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		App: "dmv", Scale: "tiny", System: "tyr",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("Tyr-Trace-Id")
	if id == "" {
		t.Fatal("no Tyr-Trace-Id response header")
	}
	var rr api.RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Stats.TraceID != id {
		t.Errorf("RunStats.TraceID = %q, want header %q", rr.Stats.TraceID, id)
	}

	d := fetchDump(t, ts, id)
	if err := d.Validate(); err != nil {
		t.Fatalf("dump invalid: %v", err)
	}
	if len(d.Requests) != 1 {
		t.Fatalf("dump has %d requests, want 1", len(d.Requests))
	}
	rec := d.Requests[0]
	if rec.Status != http.StatusOK || rec.Retained != obs.RetainSlow {
		t.Errorf("record status %d retained %q, want 200/slow", rec.Status, rec.Retained)
	}
	spans := spanNames(rec)
	for _, want := range []string{"request", "admission", "queue", "compile", "resolve", "run"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("span %q missing from tree %v", want, rec.Spans)
		}
	}
	if got := spans["run"].Attrs["cycles"]; got <= 0 {
		t.Errorf("run span cycles attr = %d, want > 0", got)
	}
	if rec.Engine == nil {
		t.Fatal("slow request retained no engine capture")
	}
	if len(rec.Engine.Events) == 0 {
		t.Error("engine capture is empty")
	}
	if rec.Engine.Chrome == nil {
		t.Error("dump did not embed the Chrome export")
	} else if err := trace.ValidateChromeJSON(rec.Engine.Chrome); err != nil {
		t.Errorf("embedded Chrome trace invalid: %v", err)
	}
}

// TestUnsampledSlowAndFailedRequests asserts that slowness and failure are
// recorded without an engine capture when the request was not sampled: a
// slow run and a run whose engine panics (a 500) each keep their reason,
// error and full span tree, and carry no engine section.
func TestUnsampledSlowAndFailedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Flight: obs.Config{SlowThreshold: time.Nanosecond, SampleEvery: -1},
	})
	for _, tc := range []struct {
		app    string
		status int
		reason string
	}{
		{"smv", http.StatusOK, obs.RetainSlow},
		{"dmv", http.StatusInternalServerError, obs.RetainFailed},
	} {
		if tc.status == http.StatusInternalServerError {
			serveCorruptDmv(t)
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
			App: tc.app, Scale: "tiny", System: "tyr",
		})
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d; body: %s", tc.app, resp.StatusCode, tc.status, body)
		}
		d := fetchDump(t, ts, resp.Header.Get("Tyr-Trace-Id"))
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: dump invalid: %v", tc.app, err)
		}
		rec := d.Requests[0]
		if rec.Retained != tc.reason || rec.Engine != nil {
			t.Errorf("%s: retained %q engine=%v, want %s with no engine section", tc.app, rec.Retained, rec.Engine, tc.reason)
		}
		if (rec.Error != "") != (tc.status != http.StatusOK) {
			t.Errorf("%s: record error %q for status %d", tc.app, rec.Error, tc.status)
		}
		spans := spanNames(rec)
		for _, want := range []string{"request", "admission", "queue", "compile", "resolve", "run"} {
			if _, ok := spans[want]; !ok {
				t.Errorf("%s: span %q missing from tree %v", tc.app, want, rec.Spans)
			}
		}
	}
}

// TestHealthyRequestSpansOnly asserts the default retention policy keeps
// span trees for healthy fast requests but drops their engine captures,
// and that sweep records carry one run span per grid cell.
func TestHealthyRequestSpansOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Flight: obs.Config{SlowThreshold: time.Hour, SampleEvery: -1},
	})

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", api.SweepRequest{
		Scale: "tiny", Apps: []string{"dmv", "smv"}, Systems: []string{"tyr"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("Tyr-Trace-Id")
	d := fetchDump(t, ts, id)
	if err := d.Validate(); err != nil {
		t.Fatalf("dump invalid: %v", err)
	}
	rec := d.Requests[0]
	if rec.Retained != "" || rec.Engine != nil {
		t.Errorf("healthy fast request retained %q engine=%v, want spans only", rec.Retained, rec.Engine)
	}
	spans := spanNames(rec)
	for _, want := range []string{"request", "admission", "queue", "run dmv/tyr", "run smv/tyr"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("span %q missing from sweep tree %v", want, rec.Spans)
		}
	}
}

// Test429BodyCarriesTraceID asserts shed requests are debuggable: the 429
// error body carries the trace ID, and the flight recorder retains the
// failed request (reason "failed", no engine capture — it never ran).
func Test429BodyCarriesTraceID(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := srv.pool.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := srv.pool.Submit(func() {}); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		App: "dmv", Scale: "tiny", System: "tyr",
	})
	close(gate)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("Tyr-Trace-Id")
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.TraceID == "" || eb.TraceID != id {
		t.Errorf("error body trace_id %q, want header %q", eb.TraceID, id)
	}

	d := fetchDump(t, ts, id)
	rec := d.Requests[0]
	if rec.Retained != obs.RetainFailed {
		t.Errorf("429 record retained %q, want failed", rec.Retained)
	}
	if rec.Engine != nil {
		t.Error("shed request has an engine capture but never reached an engine")
	}
	if rec.Error == "" {
		t.Error("429 record carries no error string")
	}
}

// TestDebugEndpoints covers the remaining debug surface: the full-ring
// dump lists requests newest first, unknown IDs 404, and the separate
// debug handler serves both pprof and the flight dumps.
func TestDebugEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{App: "dmv", Scale: "tiny", System: "tyr"})
	postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{App: "smv", Scale: "tiny", System: "tyr"})

	resp, err := ts.Client().Get(ts.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	d, err := obs.ReadDump(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("ring dump invalid: %v", err)
	}
	if len(d.Requests) != 2 {
		t.Fatalf("ring has %d records, want 2", len(d.Requests))
	}
	if d.Requests[0].Start.Before(d.Requests[1].Start) {
		t.Error("dump not newest-first")
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/debug/requests/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// The debug listener handler: pprof plus the same flight dumps.
	dbg := httptest.NewServer(srv.DebugHandler())
	defer dbg.Close()
	resp, err = dbg.Client().Get(dbg.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "goroutine") {
		t.Errorf("pprof goroutine: status %d body %.80q", resp.StatusCode, buf.String())
	}
	resp, err = dbg.Client().Get(dbg.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	d, err = obs.ReadDump(resp.Body)
	resp.Body.Close()
	if err != nil || len(d.Requests) != 2 {
		t.Errorf("debug-listener flight dump: err=%v records=%d", err, len(d.Requests))
	}
}
