package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/dfg"
	"repro/internal/obs"
)

const testSource = `program "sumloop" entry main

func main() {
  loop "L" carry (i = 0, s = 0) while i < 20 {
    s = s + i
    i = i + 1
  }
  return s
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

var kernels = []string{"dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc"}
var systems = []string{"vN", "seqdf", "ordered", "unordered", "tyr"}

// TestConcurrentRuns fires 64 concurrent /v1/run requests covering all seven
// kernels and all five systems at tiny scale, asserting every one completes,
// memory stays bounded, and no goroutines leak.
func TestConcurrentRuns(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())

	// Baseline after the pool's workers exist but before any requests.
	baseline, _ := countGoroutines()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := api.Request{
				App:    kernels[i%len(kernels)],
				Scale:  "tiny",
				System: systems[i%len(systems)],
			}
			data, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("run %d (%s/%s): status %d: %s", i, req.App, req.System, resp.StatusCode, body)
				return
			}
			var rr api.RunResult
			if err := json.Unmarshal(body, &rr); err != nil {
				errs <- fmt.Errorf("run %d: bad result: %v", i, err)
				return
			}
			if !rr.Stats.Completed || !rr.Checked {
				errs <- fmt.Errorf("run %d (%s/%s): not completed+checked: %+v", i, req.App, req.System, rr.Stats)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := srv.Metrics().simCycles.Load(); got <= 0 {
		t.Errorf("simulated-cycle counter not advanced: %d", got)
	}

	// Memory bound: after GC, the heap retained by 64 tiny runs plus the
	// shared suite's graphs must stay far below anything unbounded growth
	// would show.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Errorf("heap after 64 runs: %d MiB, want < 512 MiB", ms.HeapAlloc>>20)
	}

	// Goroutine-leak check: close the HTTP side (dropping keep-alive conns),
	// then the count must settle back to the baseline.
	ts.Close()
	waitForGoroutines(t, baseline)
	srv.Close()
}

// TestDeadlineExceededMidRun asserts a too-slow simulation is cancelled at a
// cycle boundary and reported as 504 with a structured error body. The
// workload must outlive the deadline by more than the platform's timer
// granularity (coarse-tick kernels fire a 1ms timer up to ~15ms late);
// spmspm at medium scale runs for tens of milliseconds beyond that, so the
// cancel always lands mid-run instead of racing the finish line.
func TestDeadlineExceededMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		App: "spmspm", Scale: "medium", System: "tyr", Exec: &api.ExecSpec{DeadlineMS: 1},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured: %v (%s)", err, body)
	}
	if eb.Version != api.Version || !strings.Contains(eb.Error, "stopped") {
		t.Errorf("unexpected error body: %+v", eb)
	}
}

// spinSource is valid IR whose reference run is effectively unbounded —
// ~16G dynamic instructions — so only the stop flag or the oracle step
// budget can end it within a test's lifetime.
const spinSource = `program "spin" entry main

func main() {
  loop "L" carry (i = 0, s = 0) while i < 4000000000 {
    s = s + i
    i = i + 1
  }
  return s
}
`

// TestDeadlineCancelsSourceOracle asserts that an inline-source request
// whose reference-interpreter oracle run outlives the deadline is cancelled
// on the worker and reported as 504 — the oracle must run inside the pool
// under the request's stop flag, not unbounded on the request goroutine.
func TestDeadlineCancelsSourceOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	start := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		Source: spinSource, System: "tyr", Exec: &api.ExecSpec{DeadlineMS: 1},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured: %v (%s)", err, body)
	}
	if !strings.Contains(eb.Error, "stopped") {
		t.Errorf("unexpected error body: %+v", eb)
	}
	// The ~16G-instruction oracle ran for nowhere near its natural length.
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("cancelled oracle still took %v", el)
	}
}

// TestOracleStepBudget asserts the server-side instruction budget bounds the
// oracle run even without a deadline firing: the spin program exceeds a tiny
// budget and fails as a 422, long before its 30s default timeout.
func TestOracleStepBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, OracleMaxSteps: 1000})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		Source: spinSource, System: "tyr",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "budget") {
		t.Errorf("expected a budget error, got: %s", body)
	}
}

// TestClosedPoolReturns503 asserts a draining server reports 503 Service
// Unavailable, not 429 (which would invite retries against an exiting
// instance).
func TestClosedPoolReturns503(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	srv.Close()
	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/run", api.Request{App: "dmv", Scale: "tiny", System: "tyr"}},
		{"/v1/sweep", api.SweepRequest{Scale: "tiny", Apps: []string{"dmv"}, Systems: []string{"tyr"}}},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503; body: %s", ep.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") != "" {
			t.Errorf("%s: 503 during drain should not carry Retry-After", ep.path)
		}
	}
}

// TestMalformedRequests asserts every malformed body yields a structured 400
// carrying the schema version, and validation failures list their fields.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name string
		body string
	}{
		{"truncated", `{"system": "tyr", "app"`},
		{"not json", `this is not json`},
		{"unknown field", `{"system":"tyr","app":"dmv","wavelength":7}`},
		{"wrong types", `{"system":[1,2],"app":5}`},
		{"trailing garbage", `{"system":"tyr","app":"dmv"} extra`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", resp.StatusCode, body)
			}
			var eb api.ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("400 body is not structured: %v (%s)", err, body)
			}
			if eb.Version != api.Version || eb.Error == "" {
				t.Errorf("unexpected error body: %+v", eb)
			}
		})
	}

	// A decodable but invalid request reports every bad field.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		System: "riscv", App: "dmv", Scale: "huge", IssueWidth: -1,
		TracePoints: api.MaxTracePoints + 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range eb.Fields {
		got[f.Field] = true
	}
	for _, want := range []string{"system", "scale", "issue_width", "trace_points"} {
		if !got[want] {
			t.Errorf("missing field error %q in %+v", want, eb)
		}
	}

	// Requests that would make the server allocate without bound are
	// 400s at admission, before anything is built.
	for field, req := range map[string]api.Request{
		"source":      {Source: "program \"big\" entry main\nmem a[1000000000]\n\nfunc main() {\n  return 0\n}\n", System: "tyr"},
		"issue_width": {App: "dmv", Scale: "tiny", System: "tyr", IssueWidth: 1_000_000_000},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", req)
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusBadRequest ||
			len(eb.Fields) != 1 || eb.Fields[0].Field != field {
			t.Errorf("%s over its cap: status %d body %s, want a 400 on %s", field, resp.StatusCode, body, field)
		}
	}
}

// TestRetiredShards pins what an old client that still sends exec.shards
// gets from the real handler: above 1 is a structured 400 on that field
// with the migration note, and 1 (one goroutine) still runs and checks.
func TestRetiredShards(t *testing.T) {
	checkRetiredKnob(t, "shards", "exec.shards is retired")
}

// TestRetiredBatch is TestRetiredShards for exec.batch, retired with
// lockstep batching.
func TestRetiredBatch(t *testing.T) {
	checkRetiredKnob(t, "batch", "exec.batch is retired")
}

// TestRetiredTimeoutMS drives the retired top-level timeout_ms through the
// real handlers of both endpoints: any nonzero value is a 400 on
// timeout_ms whose one note names exec.deadline_ms, and the same request
// spelled with exec.deadline_ms runs.
func TestRetiredTimeoutMS(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for path, body := range map[string]string{
		"/v1/run":   `{"app":"dmv","scale":"tiny","system":"tyr",%s}`,
		"/v1/sweep": `{"scale":"tiny","apps":["dmv"],"systems":["tyr"],%s}`,
	} {
		for deadline, want := range map[string]int{
			`"timeout_ms":5000`:           http.StatusBadRequest,
			`"exec":{"deadline_ms":5000}`: http.StatusOK,
		} {
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(fmt.Sprintf(body, deadline)))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s %s: status = %d, want %d; body: %s", path, deadline, resp.StatusCode, want, reply)
				continue
			}
			if want == http.StatusOK {
				continue
			}
			var eb api.ErrorBody
			if err := json.Unmarshal(reply, &eb); err != nil {
				t.Fatal(err)
			}
			if len(eb.Fields) != 1 || eb.Fields[0].Field != "timeout_ms" {
				t.Errorf("%s: want a single timeout_ms field error, got %+v", path, eb.Fields)
			}
			if len(eb.Notes) != 1 || !strings.Contains(eb.Notes[0], "exec.deadline_ms") {
				t.Errorf("%s: want one note naming exec.deadline_ms, got %q", path, eb.Notes)
			}
		}
	}
}

// checkRetiredKnob posts exec.<knob> = 2 and = 1 to the real handler: the
// first must be a 400 on that one field carrying the migration note, the
// second a checked, completed run.
func checkRetiredKnob(t *testing.T, knob, note string) {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	post := func(n int) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(fmt.Sprintf(`{"app":"dmv","scale":"tiny","system":"tyr","exec":{%q:%d}}`, knob, n)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := post(2)
	if code != http.StatusBadRequest {
		t.Fatalf("%s=2: status = %d, want 400; body: %s", knob, code, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if len(eb.Fields) != 1 || eb.Fields[0].Field != "exec."+knob {
		t.Errorf("%s=2: want a single exec.%s field error, got %+v", knob, knob, eb.Fields)
	}
	if len(eb.Notes) != 1 || !strings.Contains(eb.Notes[0], note) {
		t.Errorf("%s=2: want the migration note, got %q", knob, eb.Notes)
	}

	code, body = post(1)
	if code != http.StatusOK {
		t.Fatalf("%s=1: status = %d, want 200; body: %s", knob, code, body)
	}
	var rr api.RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Checked || !rr.Stats.Completed {
		t.Errorf("%s=1: checked=%v completed=%v, want both true", knob, rr.Checked, rr.Stats.Completed)
	}
}

// TestPanicFailsOnlyItsRequest first panics a job directly through
// submit, which must return an error wrapping errJobPanic and count it.
// It then serves tiny dmv from a corrupt graph (a load whose region index
// is past the region table), so the tagged engine panics building its
// machine. On a two-worker server, /v1/run and a multi-cell /v1/sweep
// (whose corrupt cell may land on a helper job) must answer that panic
// with a 500 whose body carries the trace ID, the flight recorder must
// keep the failed request, tyrd_panics_total must count each panic once,
// and the workers must still serve real runs, tiny dmv's shared graph
// among them.
func TestPanicFailsOnlyItsRequest(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	if err := srv.submit(nil, func() { panic("boom") }); !errors.Is(err, errJobPanic) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("submit of a panicking job: err = %v, want errJobPanic carrying the panic value", err)
	}
	if n := srv.Metrics().panics.Load(); n != 1 {
		t.Fatalf("tyrd_panics_total = %d after one panic, want 1", n)
	}

	restore := serveCorruptDmv(t)
	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/run", api.Request{App: "dmv", Scale: "tiny", System: "tyr"}},
		{"/v1/sweep", api.SweepRequest{Scale: "tiny", Apps: []string{"smv", "tc", "dmv"}, Systems: []string{"vN", "tyr"}}},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d, want 500; body: %s", ep.path, resp.StatusCode, body)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: 500 body is not structured: %v (%s)", ep.path, err, body)
		}
		id := resp.Header.Get("Tyr-Trace-Id")
		if eb.TraceID == "" || eb.TraceID != id {
			t.Errorf("%s: error body trace_id %q, want header %q", ep.path, eb.TraceID, id)
		}
		if !strings.Contains(eb.Error, "panicked") {
			t.Errorf("%s: error %q does not report the panic", ep.path, eb.Error)
		}
		rec := fetchDump(t, ts, id).Requests[0]
		if rec.Retained != obs.RetainFailed || !strings.Contains(rec.Error, "panicked") {
			t.Errorf("%s: flight record retained %q with error %q, want failed with the panic", ep.path, rec.Retained, rec.Error)
		}
	}
	if n := srv.Metrics().panics.Load(); n != 3 {
		t.Errorf("tyrd_panics_total = %d, want 3", n)
	}

	restore()
	for _, app := range []string{"smv", "dmv"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{App: app, Scale: "tiny", System: "tyr"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s run after the panics: status = %d, want 200; body: %s", app, resp.StatusCode, body)
		}
		var rr api.RunResult
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if !rr.Checked || !rr.Stats.Completed {
			t.Errorf("%s run after the panics: checked=%v completed=%v, want both true", app, rr.Checked, rr.Stats.Completed)
		}
	}
}

// serveCorruptDmv swaps the shared tiny suite's dmv for a fresh copy whose
// own tagged graph is corrupt (a load whose region index is past the
// region table), so the next tyr run of tiny dmv panics building its
// machine. The shared dmv and its graph are never touched. The returned
// restore puts the shared dmv back; it also runs at the end of the test.
func serveCorruptDmv(t *testing.T) (restore func()) {
	t.Helper()
	suite := api.SharedSuite(apps.ScaleTiny)
	i := slices.IndexFunc(suite, func(a *apps.App) bool { return a.Name == "dmv" })
	shared, app := suite[i], apps.Find(apps.Suite(apps.ScaleTiny), "dmv")
	g, err := app.Tagged()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for i := range g.Nodes {
		if g.Nodes[i].Op == dfg.OpLoad {
			g.Nodes[i].Region = len(g.MemNames)
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("dmv has no load to corrupt")
	}
	suite[i] = app
	restore = func() { suite[i] = shared }
	t.Cleanup(restore)
	return restore
}

// TestOverloadSheds asserts that with the single worker pinned and the queue
// full, the next request is rejected with 429 instead of queueing unbounded.
func TestOverloadSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := srv.pool.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started // worker is now pinned
	if err := srv.pool.Submit(func() {}); err != nil {
		t.Fatal(err) // fills the queue slot
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{
		App: "dmv", Scale: "tiny", System: "tyr",
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(gate)

	if srv.Metrics().busyTotal.Load() == 0 {
		t.Error("busy counter not incremented")
	}
}

// TestDrainCompletesInFlight asserts graceful shutdown lets a request that is
// already executing finish with a 200 rather than dropping it.
func TestDrainCompletesInFlight(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())

	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		data, _ := json.Marshal(api.Request{App: "dmm", Scale: "small", System: "tyr"})
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(data))
		if err != nil {
			done <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{code: resp.StatusCode, body: body}
	}()

	// Wait until the run is actually executing on the worker.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().activeJobs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}

	// httptest's Close blocks until outstanding requests finish — the same
	// contract as http.Server.Shutdown — and then the pool drains.
	ts.Close()
	srv.Close()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", r.code, r.body)
	}
	var rr api.RunResult
	if err := json.Unmarshal(r.body, &rr); err != nil || !rr.Stats.Completed {
		t.Errorf("drained run incomplete: %v %s", err, r.body)
	}
	if err := srv.pool.Submit(func() {}); err == nil {
		t.Error("pool accepted work after Close")
	}
}

// TestSweepEndpoint runs a 2x2 grid and checks the per-system summary.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", api.SweepRequest{
		Scale: "tiny", Apps: []string{"dmv", "tc"}, Systems: []string{"vN", "tyr"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr api.SweepResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 4 {
		t.Errorf("runs = %d, want 4", len(sr.Runs))
	}
	if len(sr.Systems) != 2 {
		t.Fatalf("systems = %d, want 2", len(sr.Systems))
	}
	// Each system's gmean_cycles is the gmean of its own runs' cycles.
	logSum, n := map[string]float64{}, map[string]int{}
	for _, run := range sr.Runs {
		if run.Trace != nil {
			t.Errorf("sweep cell %s/%s carries %d live-state trace points", run.App, run.System, len(run.Trace))
		}
		logSum[run.System] += math.Log(float64(run.Cycles))
		n[run.System]++
	}
	for i, sys := range sr.Systems {
		if want := []string{"vN", "tyr"}[i]; sys.System != want {
			t.Errorf("systems[%d] = %s, want %s", i, sys.System, want)
		}
		want := math.Exp(logSum[sys.System] / float64(n[sys.System]))
		if sys.GmeanCycles <= 0 || math.Abs(sys.GmeanCycles-want) > 1e-9*want {
			t.Errorf("system %s has gmean_cycles %v, want %v (the gmean of its %d runs)",
				sys.System, sys.GmeanCycles, want, n[sys.System])
		}
	}
	if sr.Scale != "tiny" || sr.Version != api.Version {
		t.Errorf("bad envelope: scale=%q version=%q", sr.Scale, sr.Version)
	}
}

// TestCompileEndpoint checks the three emit forms on inline source.
func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, emit := range []string{"asm", "dot", "ir"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/compile", api.CompileRequest{
			Source: testSource, Emit: emit,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("emit=%s: status %d: %s", emit, resp.StatusCode, body)
		}
		var cr api.CompileResult
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Listing == "" || cr.Name != "sumloop" {
			t.Errorf("emit=%s: empty listing or bad name %q", emit, cr.Name)
		}
		if emit != "ir" && cr.Nodes == 0 {
			t.Errorf("emit=%s: no node stats", emit)
		}
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/compile", api.CompileRequest{Source: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad source: status %d: %s", resp.StatusCode, body)
	}
}

// TestHealthzAndMetrics checks the health envelope and that the metrics
// exposition parses as Prometheus text format.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["version"] != api.Version {
		t.Errorf("healthz = %v", health)
	}

	// Generate some traffic so the labelled counters have entries.
	postJSON(t, ts.Client(), ts.URL+"/v1/run", api.Request{App: "dmv", Scale: "tiny", System: "tyr"})

	resp, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	seen := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Sample lines are `name value` or `name{labels} value`.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no sample value: %q", ln+1, line)
		}
		name, value := line[:sp], line[sp+1:]
		// Counters and gauges are integers; histogram _sum samples are
		// floats. Both must parse as a float.
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: bad value %q", ln+1, value)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "tyrd_") {
			t.Errorf("line %d: metric %q not in the tyrd namespace", ln+1, name)
		}
		seen[name] = true
	}
	for _, want := range []string{
		"tyrd_requests_total", "tyrd_runs_total", "tyrd_active_jobs",
		"tyrd_queue_length", "tyrd_panics_total", "tyrd_uptime_seconds",
	} {
		if !seen[want] {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
}
