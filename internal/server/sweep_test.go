package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// sweepOn posts a sweep request and decodes the result, failing the test on
// any non-200.
func sweepOn(t *testing.T, ts *httptest.Server, req api.SweepRequest) (api.SweepResult, *http.Response) {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var res api.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding sweep result: %v", err)
	}
	return res, resp
}

// normalizeRuns zeroes the per-run fields that legitimately differ between
// executors (host wall-clock, serving trace ID); everything else — the
// simulation itself — must be bit-identical wherever the cell ran.
func normalizeRuns(runs []metrics.RunStats) []metrics.RunStats {
	out := make([]metrics.RunStats, len(runs))
	copy(out, runs)
	for i := range out {
		out[i].WallNS = 0
		out[i].TraceID = ""
	}
	return out
}

// runsOverlap reports whether two of the cell spans ran at the same time,
// which only happens when a helper job ran a cell.
func runsOverlap(spans []obs.Span) bool {
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.StartNS < b.EndNS && b.StartNS < a.EndNS {
				return true
			}
		}
	}
	return false
}

// awaitRecord returns srv's flight record for id. The record is published
// after the handler returns, which can be after a large reply reached the
// client, so it polls for up to 5 s.
func awaitRecord(t *testing.T, srv *Server, id string) *obs.RequestRecord {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if rec := srv.Flight().Get(id); rec != nil {
			return rec
		}
	}
	t.Fatalf("no flight record for %s", id)
	return nil
}

// TestSweepFanOutMatchesOneWorker runs the full tiny grid and a small-scale
// subset on four workers, where helper jobs spread the cells, and on one
// worker, where no helper can start. The replies must be cell-for-cell
// identical apart from wall_ns and trace_id (run with -race: the owner,
// the helpers and the merge share the sweep state).
func TestSweepFanOutMatchesOneWorker(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	wide, wideTS := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	overlapped := false
	for _, req := range []api.SweepRequest{
		{Scale: "tiny"},
		{Scale: "small", Apps: []string{"dmv", "smv", "tc"}, Systems: []string{"vN", "ordered", "tyr"}},
	} {
		want, _ := sweepOn(t, solo, req)
		got, resp := sweepOn(t, wideTS, req)
		if len(got.Runs) != len(want.Runs) {
			t.Fatalf("%s: fanned-out sweep returned %d runs, one worker %d", req.Scale, len(got.Runs), len(want.Runs))
		}
		gotN, wantN := normalizeRuns(got.Runs), normalizeRuns(want.Runs)
		for i := range wantN {
			if gotN[i].App != wantN[i].App || gotN[i].System != wantN[i].System {
				t.Fatalf("%s: cell %d is %s/%s fanned out vs %s/%s on one worker: merge order broken",
					req.Scale, i, gotN[i].App, gotN[i].System, wantN[i].App, wantN[i].System)
			}
			a, _ := json.Marshal(gotN[i])
			b, _ := json.Marshal(wantN[i])
			if !bytes.Equal(a, b) {
				t.Errorf("%s: cell %d (%s/%s) differs:\nfanned out: %s\none worker: %s",
					req.Scale, i, wantN[i].App, wantN[i].System, a, b)
			}
		}
		// The summary's wall_ns and req_per_sec are host timings.
		for _, sys := range [][]api.SystemSummary{got.Systems, want.Systems} {
			for i := range sys {
				sys[i].WallNS, sys[i].ReqPerSec = 0, 0
			}
		}
		a, _ := json.Marshal(got.Systems)
		b, _ := json.Marshal(want.Systems)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: per-system summary differs:\nfanned out: %s\none worker: %s", req.Scale, a, b)
		}

		rec := awaitRecord(t, wide, resp.Header.Get("Tyr-Trace-Id"))
		var cells []obs.Span
		for _, sp := range rec.Spans {
			if strings.HasPrefix(sp.Name, "run ") {
				cells = append(cells, sp)
			}
		}
		if len(cells) != len(want.Runs) {
			t.Errorf("%s: %d cell spans for %d cells", req.Scale, len(cells), len(want.Runs))
		}
		// Cells start in claim order. Two of the later half running at
		// once means helpers kept queueing themselves for more cells.
		overlapped = overlapped || runsOverlap(cells[len(cells)/2:])
	}
	if !overlapped {
		t.Error("no two cells of a grid's later half ran at once on four idle workers: helpers did not keep claiming cells")
	}
}

// TestSweepNeverWaitsForQueuedHelper pins one of two workers with a gated
// job and leaves one queue slot. The sweep's owner takes the free worker
// and its helper waits in the queue behind the pinned one. The owner must
// run every cell itself and answer while the gate is still closed: it
// waits only for cells that helpers have claimed.
func TestSweepNeverWaitsForQueuedHelper(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 1})
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	if err := srv.pool.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	type reply struct {
		code int
		body []byte
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"scale":"tiny","apps":["dmv","tc"],"systems":["vN","tyr"]}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, body, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("status = %d, want 200; body: %s", r.code, r.body)
		}
		var sr api.SweepResult
		if err := json.Unmarshal(r.body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Runs) != 4 {
			t.Errorf("runs = %d, want 4", len(sr.Runs))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not answer while its helper sat in the queue behind a pinned worker")
	}
}

// runStageCount matches the number of cell runs in the exposition.
var runStageCount = regexp.MustCompile(`(?m)^tyrd_stage_duration_seconds_count\{stage="run"\} (\d+)$`)

// TestSweepDeadlineStopsClaims runs the 35-cell medium grid on two workers
// under a deadline far shorter than the grid. The reply must be a 504,
// the deadline must stop claims short of the grid, and no cell may start
// after the reply: every cell's run-stage sample is in before the reply,
// and draining the pool (late helpers included) adds none.
func TestSweepDeadlineStopsClaims(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", api.SweepRequest{Scale: "medium", Exec: &api.ExecSpec{DeadlineMS: 200}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	started := func() int {
		var buf bytes.Buffer
		if _, err := srv.Metrics().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		m := runStageCount.FindStringSubmatch(buf.String())
		if m == nil {
			return 0 // no cell started before the deadline
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	atReply := started()
	if atReply >= 35 {
		t.Errorf("all %d cells started under a 200 ms deadline: claims did not stop", atReply)
	}
	srv.Close()
	if after := started(); after != atReply {
		t.Errorf("%d cells had run at the reply, %d after the pool drained: a cell started after the 504", atReply, after)
	}
}

// TestSweepAdoptsInboundTraceID posts a sweep carrying a valid
// Tyr-Trace-Id, as a client or proxy that mints its own IDs would, and
// asserts the server adopts it: same ID on the response and a flight
// record under that ID.
func TestSweepAdoptsInboundTraceID(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	req := api.SweepRequest{Scale: "tiny", Apps: []string{"dmv"}, Systems: []string{"vN"}}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "deadbeefdeadbeef"
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Tyr-Trace-Id", id)
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Tyr-Trace-Id"); got != id {
		t.Errorf("response trace ID %q, want adopted %q", got, id)
	}
	if rec := srv.Flight().Get(id); rec == nil {
		t.Error("no flight record under the adopted trace ID")
	}

	// A hostile header is rejected: the server mints its own ID instead.
	hreq2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(string(data)))
	hreq2.Header.Set("Content-Type", "application/json")
	hreq2.Header.Set("Tyr-Trace-Id", "Not-Hex-At-All!")
	resp2, err := ts.Client().Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("Tyr-Trace-Id"); got == "" || got == "Not-Hex-At-All!" {
		t.Errorf("invalid inbound trace ID not replaced (got %q)", got)
	}
}
