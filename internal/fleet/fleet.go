// Package fleet turns a set of tyrd instances into one sweep-serving
// fleet. A coordinator splits the /v1/sweep grid into contiguous
// cell-range partials (the zed Parallelize partition-and-merge shape:
// partition by range, execute anywhere, merge by position), fans them out
// to peers over the existing tyr-api/v1 HTTP surface, and executes its own
// share locally on the calling goroutine — which is the server's single
// pool job, so a distributed sweep still costs the coordinator exactly one
// worker and cannot deadlock the bounded queue.
//
// Failure policy: a peer that errors, times out, or returns a malformed
// partial is dead for the remainder of the sweep (conservative — sweeps
// are short relative to real outages, and a flapping peer would otherwise
// eat every retry). Its partial is re-shed onto the remaining peers, or
// onto the local executor once remote attempts are exhausted or no peers
// remain. One dead peer therefore degrades latency, never correctness.
// Only a semantic rejection (HTTP 400/422 — the workload itself is bad)
// aborts the sweep, because retrying elsewhere would fail identically.
//
// Determinism: partials are merged by cell index — runs[i] is grid cell i
// no matter which instance computed it or in which order results arrived —
// so a distributed sweep is cell-for-cell identical to a single-instance
// sweep.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cancel"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Observer receives coordinator outcome counts. *server.Metrics implements
// it; nil disables counting.
type Observer interface {
	ObserveFleetPartial()
	ObserveFleetReshed()
	ObserveFleetPeerFailure()
}

// Config configures a Coordinator.
type Config struct {
	// Peers are the fleet members' addresses (host:port), not including
	// this instance.
	Peers []string
	// Client issues the fan-out requests (default: http.Client with no
	// overall timeout — per-attempt deadlines come from PartialTimeout).
	Client *http.Client
	// PartialTimeout bounds each remote attempt: it is both the HTTP
	// context deadline and the timeout_ms sent to the peer, so the peer's
	// engines observe the same deadline the coordinator enforces (default
	// 60s).
	PartialTimeout time.Duration
	// PeerRetries is how many times a failed partial is re-shed to the
	// remaining peers before it is forced local (default 1).
	PeerRetries int
	// Obs receives partial/re-shed/peer-failure counts; nil disables.
	Obs Observer
	// Logger receives per-partial dispatch and failure logs; nil disables.
	Logger *slog.Logger
}

// MaxPeerReply bounds the bytes the coordinator reads from a peer's /v1/sweep
// reply. The largest full-grid reply measured is 43 KB (medium scale at
// issue width 65536), so a reply past the bound comes from a broken or
// hostile peer: it is a peer failure, and its partial is re-shed.
const MaxPeerReply = 16 << 20

// Coordinator fans sweeps out across the fleet. Safe for concurrent use;
// each Run is independent.
type Coordinator struct {
	cfg Config
}

// New builds a Coordinator. Returns nil if cfg.Peers is empty — callers
// treat a nil Coordinator as "fleet mode off".
func New(cfg Config) *Coordinator {
	if len(cfg.Peers) == 0 {
		return nil
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.PartialTimeout <= 0 {
		cfg.PartialTimeout = 60 * time.Second
	}
	if cfg.PeerRetries <= 0 {
		cfg.PeerRetries = 1
	}
	return &Coordinator{cfg: cfg}
}

// Peers reports the configured peer addresses.
func (c *Coordinator) Peers() []string { return c.cfg.Peers }

// SemanticError is a peer's 4xx rejection of a partial: the workload
// itself is invalid, so the sweep aborts instead of re-shedding (every
// executor would reject it identically).
type SemanticError struct {
	Peer   string
	Status int
	Msg    string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("peer %s rejected partial (%d): %s", e.Peer, e.Status, e.Msg)
}

// partial is one contiguous cell range [start, end) of the sweep grid.
type partial struct {
	start, end int
	attempts   int // failed remote attempts so far
}

// outcome is a completed (or terminally failed) partial.
type outcome struct {
	p    *partial
	runs []metrics.RunStats
	err  error // non-nil only for terminal errors
}

// Run executes a sweep of total cells across the fleet and returns the
// merged runs, indexed by cell. makeReq builds the tyr-api/v1 sweep
// request for a given cell range (the coordinator fills in the partial
// deadline); runLocal executes a cell range on the calling goroutine and
// is the fallback executor of last resort. t (nil-safe) receives one child
// span per executed partial, so the coordinator's flight record telescopes
// the whole distributed sweep.
//
// Run returns ctx's cancellation as cancel.ErrStopped. On any terminal
// error, outstanding peer requests are cancelled before returning.
func (c *Coordinator) Run(
	ctx context.Context,
	t *obs.RequestTrace,
	total int,
	makeReq func(start, count int) api.SweepRequest,
	runLocal func(start, end int) ([]metrics.RunStats, error),
) ([]metrics.RunStats, error) {
	if total <= 0 {
		return nil, nil
	}
	parts := partition(total, len(c.cfg.Peers)+1)

	// Queue capacities equal the partial count, so a partial always has a
	// free slot and re-shedding never blocks. workQ feeds every executor
	// (peers pull it concurrently; the local loop pulls it too, which is
	// what keeps work flowing when every peer has died); localQ holds
	// partials that exhausted their remote attempts and may only run here.
	workQ := make(chan *partial, len(parts))
	localQ := make(chan *partial, len(parts))
	results := make(chan outcome, len(parts))
	for _, p := range parts {
		workQ <- p
		if c.cfg.Obs != nil {
			c.cfg.Obs.ObserveFleetPartial()
		}
	}

	fanCtx, cancelFan := context.WithCancel(ctx)
	defer cancelFan()
	var live atomic.Int32
	live.Store(int32(len(c.cfg.Peers)))
	for _, peer := range c.cfg.Peers {
		go c.peerWorker(fanCtx, peer, t, workQ, localQ, results, &live, makeReq)
	}

	merged := make([]metrics.RunStats, total)
	for done := 0; done < len(parts); {
		select {
		case <-ctx.Done():
			return nil, cancel.ErrStopped
		case o := <-results:
			if o.err != nil {
				return nil, o.err
			}
			copy(merged[o.p.start:o.p.end], o.runs)
			done++
		case p := <-localQ:
			if err := c.runHere(t, p, merged, runLocal); err != nil {
				return nil, err
			}
			done++
		case p := <-workQ:
			if err := c.runHere(t, p, merged, runLocal); err != nil {
				return nil, err
			}
			done++
		}
	}
	return merged, nil
}

// runHere executes a partial on the local executor and merges it in place.
func (c *Coordinator) runHere(t *obs.RequestTrace, p *partial, merged []metrics.RunStats, runLocal func(start, end int) ([]metrics.RunStats, error)) error {
	span := t.StartSpan(fmt.Sprintf("partial[%d:%d) local", p.start, p.end), obs.RootSpan)
	t.SetAttr(span, "cells", int64(p.end-p.start))
	t.SetAttr(span, "attempt", int64(p.attempts))
	runs, err := runLocal(p.start, p.end)
	t.EndSpan(span)
	if err != nil {
		return err
	}
	copy(merged[p.start:p.end], runs)
	return nil
}

// peerWorker pulls partials from workQ and executes them on one peer until
// the sweep ends or the peer fails. The first failure retires the peer for
// the rest of the sweep and re-sheds its partial: back onto workQ while
// remote attempts and live peers remain, otherwise onto localQ.
func (c *Coordinator) peerWorker(
	ctx context.Context,
	peer string,
	t *obs.RequestTrace,
	workQ, localQ chan *partial,
	results chan outcome,
	live *atomic.Int32,
	makeReq func(start, count int) api.SweepRequest,
) {
	for {
		select {
		case <-ctx.Done():
			return
		case p := <-workQ:
			span := t.StartSpan(fmt.Sprintf("partial[%d:%d) peer %s", p.start, p.end, peer), obs.RootSpan)
			t.SetAttr(span, "cells", int64(p.end-p.start))
			t.SetAttr(span, "attempt", int64(p.attempts))
			runs, err := c.callPeer(ctx, peer, t.ID(), p, makeReq)
			t.EndSpan(span)
			if err == nil {
				results <- outcome{p: p, runs: runs}
				continue
			}
			var se *SemanticError
			if errors.As(err, &se) {
				results <- outcome{p: p, err: err}
				return
			}
			if ctx.Err() != nil {
				// The sweep is over (cancelled or already failed); the
				// partial's fate no longer matters.
				return
			}
			// Transport failure, timeout, 5xx, or protocol violation:
			// retire this peer and re-shed the partial.
			remaining := live.Add(-1)
			p.attempts++
			if c.cfg.Obs != nil {
				c.cfg.Obs.ObserveFleetPeerFailure()
				c.cfg.Obs.ObserveFleetReshed()
			}
			if c.cfg.Logger != nil {
				c.cfg.Logger.Warn("fleet peer failed, re-shedding partial",
					"peer", peer,
					"cell_start", p.start,
					"cell_end", p.end,
					"attempt", p.attempts,
					"live_peers", remaining,
					"err", err.Error())
			}
			if p.attempts <= c.cfg.PeerRetries && remaining > 0 {
				workQ <- p
			} else {
				localQ <- p
			}
			return
		}
	}
}

// callPeer executes one partial on one peer over tyr-api/v1, propagating
// the coordinator's trace ID and enforcing the per-partial deadline.
func (c *Coordinator) callPeer(ctx context.Context, peer, traceID string, p *partial, makeReq func(start, count int) api.SweepRequest) ([]metrics.RunStats, error) {
	req := makeReq(p.start, p.end-p.start)
	req.TimeoutMS = c.cfg.PartialTimeout.Milliseconds()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("peer %s: encoding request: %w", peer, err)
	}

	attemptCtx, cancelAttempt := context.WithTimeout(ctx, c.cfg.PartialTimeout)
	defer cancelAttempt()
	hreq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, "http://"+peer+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", peer, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		hreq.Header.Set("Tyr-Trace-Id", traceID)
	}

	resp, err := c.cfg.Client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", peer, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusUnprocessableEntity {
		var eb api.ErrorBody
		msg := "unreadable error body"
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, &SemanticError{Peer: peer, Status: resp.StatusCode, Msg: msg}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
	var res api.SweepResult
	reply := &io.LimitedReader{R: resp.Body, N: MaxPeerReply}
	if err := json.NewDecoder(reply).Decode(&res); err != nil {
		if reply.N == 0 {
			return nil, fmt.Errorf("peer %s: reply exceeds %d bytes", peer, MaxPeerReply)
		}
		return nil, fmt.Errorf("peer %s: decoding result: %w", peer, err)
	}
	if len(res.Runs) != p.end-p.start {
		return nil, fmt.Errorf("peer %s: partial returned %d runs for %d cells", peer, len(res.Runs), p.end-p.start)
	}
	return res.Runs, nil
}

// partition splits [0, total) into contiguous chunks in cell order: about
// two per executor (so a slow partial can be overlapped by re-balancing,
// without shattering the grid into per-cell HTTP calls), sizes differing
// by at most one cell.
func partition(total, executors int) []*partial {
	n := 2 * executors
	if n > total {
		n = total
	}
	parts := make([]*partial, 0, n)
	base, rem := total/n, total%n
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		parts = append(parts, &partial{start: start, end: start + size})
		start += size
	}
	return parts
}
