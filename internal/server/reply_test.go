package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestWriteJSON pins the reply encoding: one compact line with its
// Content-Length, and a value encoding/json cannot represent becomes a 500
// carrying the trace ID rather than a 200 with an empty or truncated body.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"cycles": 7})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"cycles\":7}\n" {
		t.Errorf("got %d %q, want 201 and one compact line", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", got, rec.Body.Len())
	}

	rec = httptest.NewRecorder()
	rec.Header().Set("Tyr-Trace-Id", "00ff")
	writeJSON(rec, http.StatusOK, map[string]float64{"mean_live": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body)
	}
	var body api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body is not an ErrorBody: %v (%q)", err, rec.Body)
	}
	if body.Version != api.Version || body.TraceID != "00ff" || !strings.Contains(body.Error, "NaN") {
		t.Errorf("error body = %+v, want the version, trace ID 00ff and the encoding error", body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("500 Content-Length = %q, body is %d bytes", got, rec.Body.Len())
	}
}

// postRun posts one /v1/run request and returns its 200 reply, raw and
// decoded.
func postRun(t *testing.T, ts *httptest.Server, req api.Request) ([]byte, api.RunResult) {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/%s: status %d: %s", req.App, req.System, resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("%s/%s: Content-Length %d, body %d bytes", req.App, req.System, resp.ContentLength, len(body))
	}
	var rr api.RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("%s/%s: decoding reply: %v", req.App, req.System, err)
	}
	return body, rr
}

// TestRunReplyIsLean pins the default /v1/run reply: a single compact line
// without stats.trace.
func TestRunReplyIsLean(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	body, _ := postRun(t, ts, api.Request{App: "dmv", Scale: "tiny", System: "tyr"})
	if i := bytes.IndexByte(body, '\n'); i != len(body)-1 {
		t.Errorf("reply is not a single line: %q", body)
	}
	var reply struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.Stats["cycles"]; !ok {
		t.Fatalf("reply has no stats.cycles: %s", body)
	}
	if tr, ok := reply.Stats["trace"]; ok {
		t.Errorf("default reply carries stats.trace (%d bytes)", len(tr))
	}
}

// TestRunReplyTraceOptIn runs every system with the trace off and with
// trace_points set. The traced reply carries 1..N points ending at the
// run's last cycle and peaking at its peak live state, and the trace
// changes nothing the engine simulates.
func TestRunReplyTraceOptIn(t *testing.T) {
	const n = 64
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	for _, sys := range systems {
		req := api.Request{App: "dmm", Scale: "tiny", System: sys}
		_, off := postRun(t, ts, req)
		req.TracePoints = n
		_, on := postRun(t, ts, req)

		if off.Stats.Trace != nil {
			t.Errorf("%s: untraced run carries %d trace points", sys, len(off.Stats.Trace))
		}
		tr := on.Stats.Trace
		if len(tr) < 1 || len(tr) > n {
			t.Errorf("%s: trace_points=%d returned %d points", sys, n, len(tr))
			continue
		}
		if last := tr[len(tr)-1]; last.Cycle != on.Stats.Cycles {
			t.Errorf("%s: last trace point at cycle %d, run took %d", sys, last.Cycle, on.Stats.Cycles)
		}
		var peak int64
		for _, p := range tr {
			peak = max(peak, p.Live)
		}
		if peak != on.Stats.PeakLive {
			t.Errorf("%s: trace peaks at %d live, peak_live is %d", sys, peak, on.Stats.PeakLive)
		}

		a, b := off.Stats, on.Stats
		if a.Cycles != b.Cycles || a.Fired != b.Fired || a.PeakLive != b.PeakLive ||
			a.MeanLive != b.MeanLive || !reflect.DeepEqual(a.IPCHist, b.IPCHist) {
			t.Errorf("%s: the trace changed the simulation:\n off: %+v\n  on: %+v", sys, a, b)
		}
	}
}

// volatileFields matches the only reply fields that may differ between two
// runs of the same request: its trace ID and its wall time.
var volatileFields = regexp.MustCompile(`"trace_id":"[0-9a-f]*"|"wall_ns":[0-9]+`)

// TestRunReplyIndependentOfCapture runs every tiny kernel on every system
// once on a server that captures every request's engine trace and once on
// one that captures none. Capture is observation only: the two replies
// must be byte-identical apart from trace_id and wall_ns.
func TestRunReplyIndependentOfCapture(t *testing.T) {
	sampled, sts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Flight: obs.Config{SampleEvery: 1}})
	_, uts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Flight: obs.Config{SampleEvery: -1}})
	for _, app := range kernels {
		for _, sys := range systems {
			req := api.Request{App: app, Scale: "tiny", System: sys}
			on, onRes := postRun(t, sts, req)
			off, _ := postRun(t, uts, req)
			if rec := sampled.Flight().Get(onRes.Stats.TraceID); rec == nil || rec.Engine == nil {
				t.Errorf("%s/%s: sampled request has no engine capture", app, sys)
			}
			if a, b := volatileFields.ReplaceAll(on, nil), volatileFields.ReplaceAll(off, nil); !bytes.Equal(a, b) {
				t.Errorf("%s/%s: reply depends on engine capture:\n sampled: %s\nunsampled: %s", app, sys, a, b)
			}
		}
	}
}
