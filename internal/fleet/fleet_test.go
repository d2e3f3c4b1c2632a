package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func addr(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// cellRuns fabricates one run per cell of [start, start+count) whose Cycles
// field IS the cell index, so a merged result encodes exactly which cell
// landed in which slot — any merge-order bug shows up as Cycles != i.
func cellRuns(system string, start, count int) []metrics.RunStats {
	runs := make([]metrics.RunStats, count)
	for i := range runs {
		runs[i] = metrics.RunStats{System: system, Cycles: int64(start + i)}
	}
	return runs
}

// fakePeer serves correct partials. Each request records the inbound trace
// header, bumps served, and opens gate (once) — the hook that lets a test
// hold the coordinator's local executor until remote work is in flight.
func fakePeer(t *testing.T, served *atomic.Int64, traceIDs chan string, gate chan struct{}, once *sync.Once) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.TimeoutMS <= 0 {
			t.Errorf("fanned-out partial carries no deadline (timeout_ms = %d)", req.TimeoutMS)
		}
		select {
		case traceIDs <- r.Header.Get("Tyr-Trace-Id"):
		default:
		}
		served.Add(1)
		once.Do(func() { close(gate) })
		json.NewEncoder(w).Encode(api.SweepResult{
			Version: api.Version,
			Runs:    cellRuns("fake", req.CellStart, req.CellCount),
		})
	}))
}

// TestRunMergesByCellIndex drives a coordinator against two fake peers with
// the local executor gated until a peer has taken work — guaranteeing a mix
// of local and remote partials — and asserts the merge is by cell index and
// the coordinator's trace ID reached the peers.
func TestRunMergesByCellIndex(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	var served atomic.Int64
	traceIDs := make(chan string, 32)
	p1 := fakePeer(t, &served, traceIDs, gate, &once)
	p2 := fakePeer(t, &served, traceIDs, gate, &once)
	t.Cleanup(p1.Close)
	t.Cleanup(p2.Close)

	c := fleet.New(fleet.Config{Peers: []string{addr(p1), addr(p2)}})
	fr := obs.NewFlightRecorder(obs.Config{})
	tr := fr.Start("POST", "/v1/sweep")

	const total = 11
	var localCells atomic.Int64
	merged, err := c.Run(context.Background(), tr, total,
		func(start, count int) api.SweepRequest {
			return api.SweepRequest{Scale: "tiny", CellStart: start, CellCount: count}
		},
		func(start, end int) ([]metrics.RunStats, error) {
			<-gate // hold local work until a peer has a partial in flight
			localCells.Add(int64(end - start))
			return cellRuns("local", start, end-start), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != total {
		t.Fatalf("merged %d runs, want %d", len(merged), total)
	}
	for i, r := range merged {
		if r.Cycles != int64(i) {
			t.Errorf("slot %d holds cell %d (from %s) — merge is not by cell index", i, r.Cycles, r.System)
		}
	}
	if served.Load() == 0 {
		t.Fatal("no partial went remote despite the gated local executor")
	}
	if id := <-traceIDs; id != tr.ID() {
		t.Errorf("peer saw trace ID %q, coordinator's is %q", id, tr.ID())
	}
}

// TestSemanticRejectionAborts asserts that a peer's 422 aborts the sweep
// with a SemanticError instead of re-shedding a workload every executor
// would reject identically.
func TestSemanticRejectionAborts(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(gate) })
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(api.ErrorBody{Error: "bad workload"})
	}))
	t.Cleanup(peer.Close)

	c := fleet.New(fleet.Config{Peers: []string{addr(peer)}})
	_, err := c.Run(context.Background(), nil, 8,
		func(start, count int) api.SweepRequest {
			return api.SweepRequest{Scale: "tiny", CellStart: start, CellCount: count}
		},
		func(start, end int) ([]metrics.RunStats, error) {
			<-gate // ensure the peer actually receives a partial
			return cellRuns("local", start, end-start), nil
		})
	var se *fleet.SemanticError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *fleet.SemanticError", err)
	}
	if se.Status != http.StatusUnprocessableEntity || !strings.Contains(se.Msg, "bad workload") {
		t.Errorf("semantic error lost detail: %+v", se)
	}
}

// failureCounter is a fleet.Observer counting peer failures.
type failureCounter struct{ failures atomic.Int64 }

func (*failureCounter) ObserveFleetPartial()       {}
func (*failureCounter) ObserveFleetReshed()        {}
func (f *failureCounter) ObserveFleetPeerFailure() { f.failures.Add(1) }

// TestOversizedPeerReplyIsAPeerFailure serves a well-formed partial padded
// past MaxPeerReply with whitespace. The coordinator must stop reading at
// the bound, count the peer as failed and re-shed its partial, so every
// cell of the sweep comes from the local executor.
func TestOversizedPeerReplyIsAPeerFailure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(gate) })
		var req api.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		runs, _ := json.Marshal(cellRuns("peer", req.CellStart, req.CellCount))
		w.Write([]byte(`{"version":"tyr-api/v1","runs":`))
		pad := bytes.Repeat([]byte{' '}, 64<<10)
		for sent := 0; sent < fleet.MaxPeerReply; sent += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return // the coordinator hung up
			}
		}
		w.Write(runs)
		w.Write([]byte("}"))
	}))
	t.Cleanup(peer.Close)

	var fc failureCounter
	c := fleet.New(fleet.Config{Peers: []string{addr(peer)}, Obs: &fc})
	const total = 8
	merged, err := c.Run(context.Background(), nil, total,
		func(start, count int) api.SweepRequest {
			return api.SweepRequest{Scale: "tiny", CellStart: start, CellCount: count}
		},
		func(start, end int) ([]metrics.RunStats, error) {
			<-gate // ensure the peer actually receives a partial
			return cellRuns("local", start, end-start), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range merged {
		if r.Cycles != int64(i) || r.System != "local" {
			t.Errorf("slot %d holds cell %d from %s, want cell %d from the local executor", i, r.Cycles, r.System, i)
		}
	}
	if n := fc.failures.Load(); n != 1 {
		t.Errorf("peer failures = %d, want 1", n)
	}
}

// TestNewWithoutPeers asserts fleet mode is off (nil coordinator) when no
// peers are configured.
func TestNewWithoutPeers(t *testing.T) {
	if c := fleet.New(fleet.Config{}); c != nil {
		t.Fatalf("New with no peers = %v, want nil", c)
	}
}
