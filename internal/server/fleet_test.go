package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/metrics"
)

// peerAddr strips the scheme from an httptest server URL, yielding the
// host:port form the -peers flag takes.
func peerAddr(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

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

// TestDistributedSweepMatchesLocal runs the same sweep on a single instance
// and through a coordinator fanning out to two peers, asserting the merged
// distributed result is cell-for-cell identical (run with -race: the
// coordinator's local executor, peer workers, and merge loop all share the
// sweep state).
func TestDistributedSweepMatchesLocal(t *testing.T) {
	req := api.SweepRequest{
		Scale:   "tiny",
		Systems: []string{"vN", "seqdf", "tyr"},
	}

	_, solo := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	want, _ := sweepOn(t, solo, req)

	_, peerA := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	_, peerB := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	coord, coordTS := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 16,
		Peers:      []string{peerAddr(peerA), peerAddr(peerB)},
	})
	got, _ := sweepOn(t, coordTS, req)

	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("distributed sweep returned %d runs, single instance %d", len(got.Runs), len(want.Runs))
	}
	gotN, wantN := normalizeRuns(got.Runs), normalizeRuns(want.Runs)
	for i := range wantN {
		if gotN[i].App != wantN[i].App || gotN[i].System != wantN[i].System {
			t.Fatalf("cell %d is %s/%s distributed vs %s/%s local — merge order broken",
				i, gotN[i].App, gotN[i].System, wantN[i].App, wantN[i].System)
		}
		a, _ := json.Marshal(gotN[i])
		b, _ := json.Marshal(wantN[i])
		if string(a) != string(b) {
			t.Errorf("cell %d (%s/%s) differs:\ndistributed: %s\nlocal:       %s",
				i, wantN[i].App, wantN[i].System, a, b)
		}
		if gotN[i].Trace != nil {
			t.Errorf("cell %d (%s/%s) carries a live-state trace through the fleet", i, wantN[i].App, wantN[i].System)
		}
	}

	if got := coord.Metrics().fleetPartials.Load(); got == 0 {
		t.Error("coordinator recorded no fleet partials")
	}
	if got := coord.Metrics().fleetPeerFails.Load(); got != 0 {
		t.Errorf("healthy fleet recorded %d peer failures", got)
	}
}

// TestSweepAdoptsInboundTraceID posts a ranged sweep carrying a valid
// Tyr-Trace-Id — what a coordinator's fan-out request looks like — and
// asserts the peer adopts it: same ID on the response and a flight record
// under that ID, joining the distributed request across instances.
func TestSweepAdoptsInboundTraceID(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	req := api.SweepRequest{Scale: "tiny", Apps: []string{"dmv"}, Systems: []string{"vN"}, CellStart: 0, CellCount: 1}
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

// TestDistributedSweepSurvivesPeerFailure points the coordinator at one
// healthy peer and one peer that fails every request, asserting the sweep
// still completes with the exact single-instance result and the re-shed is
// visible in the coordinator's metrics.
func TestDistributedSweepSurvivesPeerFailure(t *testing.T) {
	req := api.SweepRequest{
		Scale:   "tiny",
		Systems: []string{"vN", "tyr"},
	}

	_, solo := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	want, _ := sweepOn(t, solo, req)

	_, healthy := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	// A peer that is reachable but broken: every sweep call fails with a
	// 500, the retryable class of failure (as opposed to a 4xx rejection).
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	coord, coordTS := newTestServer(t, Config{
		Workers:        2,
		QueueDepth:     16,
		Peers:          []string{peerAddr(healthy), peerAddr(broken)},
		PartialTimeout: 10 * time.Second,
	})
	// Which executor pulls each partial is a scheduling race at tiny
	// scale: the coordinator's local loop drains the same work queue as
	// the peer workers and can empty it before the broken peer's
	// goroutine runs. Every sweep must match the single-instance result,
	// but the failure metrics only move on a sweep whose broken peer
	// actually received work — so sweep until one did (the first pass
	// almost always suffices; the CI fleet smoke uses the same loop).
	wantN := normalizeRuns(want.Runs)
	b, _ := json.Marshal(wantN)
	m := coord.Metrics()
	for attempt := 0; attempt < 10; attempt++ {
		got, _ := sweepOn(t, coordTS, req)
		gotN := normalizeRuns(got.Runs)
		a, _ := json.Marshal(gotN)
		if string(a) != string(b) {
			t.Fatalf("sweep with a failing peer differs from single-instance:\ngot:  %s\nwant: %s", a, b)
		}
		if m.fleetPeerFails.Load() > 0 {
			break
		}
	}
	if m.fleetPeerFails.Load() == 0 {
		t.Error("broken peer produced no peer-failure count")
	}
	if m.fleetResheds.Load() == 0 {
		t.Error("broken peer's partial was not re-shed")
	}
}

// TestDistributedSweepAllPeersDead points the coordinator only at
// unreachable peers: every partial must fall back to the local executor and
// the sweep must still be correct.
func TestDistributedSweepAllPeersDead(t *testing.T) {
	req := api.SweepRequest{
		Scale:   "tiny",
		Apps:    []string{"dmv", "smv"},
		Systems: []string{"vN", "tyr"},
	}

	_, solo := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	want, _ := sweepOn(t, solo, req)

	// Reserve two ports that nothing listens on.
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	addr1, addr2 := peerAddr(dead1), peerAddr(dead2)
	dead1.Close()
	dead2.Close()

	// Whether a peer failure is even observed is a scheduling race (the
	// local executor may drain the whole grid before a dial fails), so the
	// only assertion is the one that matters: correctness.
	_, coordTS := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 16,
		Peers:      []string{addr1, addr2},
	})
	got, _ := sweepOn(t, coordTS, req)

	a, _ := json.Marshal(normalizeRuns(got.Runs))
	b, _ := json.Marshal(normalizeRuns(want.Runs))
	if string(a) != string(b) {
		t.Errorf("sweep with all peers dead differs from single-instance:\ngot:  %s\nwant: %s", a, b)
	}
}

// TestExplicitRangeServedLocally asserts that a request carrying an explicit
// cell range is executed locally even on a coordinator — the property that
// makes fan-out non-recursive — and that an out-of-range request is a 400.
func TestExplicitRangeServedLocally(t *testing.T) {
	// Peers that would 500 any forwarded sweep: if the coordinator ever
	// fanned a ranged request out, the sweep would fail.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "must not be called", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	var called int
	brokenCount := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called++
		http.Error(w, "must not be called", http.StatusInternalServerError)
	}))
	t.Cleanup(brokenCount.Close)

	_, coordTS := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 16,
		Peers:      []string{peerAddr(broken), peerAddr(brokenCount)},
	})

	req := api.SweepRequest{
		Scale:     "tiny",
		Apps:      []string{"dmv"},
		Systems:   []string{"vN", "seqdf", "tyr"},
		CellStart: 1,
		CellCount: 2,
	}
	res, _ := sweepOn(t, coordTS, req)
	if len(res.Runs) != 2 {
		t.Fatalf("ranged sweep returned %d runs, want 2", len(res.Runs))
	}
	if res.Runs[0].System != "seqdf" || res.Runs[1].System != "tyr" {
		t.Errorf("ranged sweep returned cells %s, %s; want seqdf, tyr", res.Runs[0].System, res.Runs[1].System)
	}
	if called != 0 {
		t.Errorf("ranged request was fanned out to a peer %d times", called)
	}

	// A range past the end of the grid is a validation error on
	// cell_start, not a crash, also when cell_start + cell_count overflows.
	req.CellStart, req.CellCount = 2, 5
	for i, body := range []any{req, json.RawMessage(overflowSweep)} {
		resp, reply := postJSON(t, coordTS.Client(), coordTS.URL+"/v1/sweep", body)
		var eb api.ErrorBody
		if err := json.Unmarshal(reply, &eb); resp.StatusCode != http.StatusBadRequest || err != nil ||
			len(eb.Fields) != 1 || eb.Fields[0].Field != "cell_start" {
			t.Fatalf("out-of-range sweep %d: status %d (want 400 on cell_start): %s", i, resp.StatusCode, reply)
		}
	}
}

// overflowSweep asks for a cell range whose end overflows an int.
const overflowSweep = `{"scale":"tiny","apps":["dmv"],"systems":["vN","tyr"],"cell_start":1,"cell_count":9223372036854775807}`
