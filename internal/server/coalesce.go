package server

import (
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Coalescer groups queued /v1/run requests that share a compiled graph
// into one lockstep batch job (DESIGN.md §12). The first request of a
// graph opens a forming batch; requests arriving inside the formation
// window join it; the batch dispatches as ONE pool job — occupying one
// worker, like any other run — either when it fills to the batch width
// or when the window expires with an idle worker to run it (see flush:
// while the pool is backlogged the window re-arms, since flushing
// shallow would not start the batch any sooner). Each member's result
// is bit-identical to running it alone, so coalescing is invisible to
// clients except as throughput.
//
// Only named suite workloads coalesce: their resolution is a table
// lookup, so the grouping key (the graph-cache key — lowering plus
// source hash) is known on the request goroutine. Inline sources carry
// a CPU-bound oracle validation run that must stay on a pool worker,
// and the interpreter-driven baselines (vN, seqdf) have no compiled
// graph to share; both take the solo path.
type Coalescer struct {
	srv    *Server
	size   int
	window time.Duration

	mu     sync.Mutex
	closed bool
	groups map[string]*batchGroup // grouping key -> forming batch
}

// batchGroup is one forming batch: requests sharing a grouping key,
// parked until dispatch.
type batchGroup struct {
	key      string
	width    int // dispatch threshold: min over members' effective widths
	waiters  []*batchWaiter
	timer    *time.Timer
	deferred int // window expiries survived while the pool was backlogged
}

// maxBatchDeferrals bounds how many window expiries a forming batch may
// ride out while the pool is backlogged: work-conserving batching must
// not become unbounded queue-jumping by solo jobs, so after this many
// deferrals the batch flushes shallow regardless.
const maxBatchDeferrals = 50

// batchWaiter parks one request on its batch: the handler goroutine
// blocks in await until the batch's pool job (or a submit failure)
// closes done.
type batchWaiter struct {
	item harness.BatchItem
	t    *obs.RequestTrace
	wait obs.SpanID // "coalesce" span: enqueue -> batch job start
	done chan struct{}

	// Written by the dispatching goroutine before done closes.
	out       harness.BatchOutcome
	submitErr error
}

// await blocks until the batch delivers; it returns the pool rejection
// (ErrBusy/ErrClosed) if the batch never ran, else nil with bw.out set.
func (bw *batchWaiter) await() error {
	<-bw.done
	return bw.submitErr
}

func newCoalescer(srv *Server, size int, window time.Duration) *Coalescer {
	return &Coalescer{
		srv:    srv,
		size:   size,
		window: window,
		groups: make(map[string]*batchGroup),
	}
}

// enqueue joins the request to its graph's forming batch, reporting
// ok=false when the request is not coalescible (no coalescer, inline
// source, serial-family system, or an effective width <= 1 — including
// an explicit exec.batch=1 opt-out) — the caller then takes the solo
// path. Nil-safe: a disabled server coalesces nothing.
func (c *Coalescer) enqueue(t *obs.RequestTrace, req *api.Request, plan *api.Plan, sc harness.SysConfig) (*batchWaiter, bool) {
	if c == nil || req.Source != "" || req.App == "" {
		return nil, false
	}
	if harness.BatchFamily(req.System) == "serial" {
		return nil, false
	}
	width := c.size
	if plan.Batch > 0 && plan.Batch < width {
		width = plan.Batch
	}
	if width <= 1 {
		return nil, false
	}
	// Cheap for named kernels: a suite table lookup, no oracle run.
	app, err := plan.ResolveApp()
	if err != nil {
		return nil, false // the solo path reports the resolution error
	}
	lowering := "tagged"
	if req.System == harness.SysOrdered {
		lowering = "ordered"
	}
	key := lowering + ":" + sourceHash(lowering, app)

	bw := &batchWaiter{
		item: harness.BatchItem{App: app, System: req.System, Cfg: sc},
		t:    t,
		done: make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	g := c.groups[key]
	if g == nil {
		g = &batchGroup{key: key, width: width}
		c.groups[key] = g
		// The window timer backstops formation: a batch that never fills
		// still dispatches once a worker could actually start it, so on
		// an idle server no request waits longer than the window.
		g.timer = time.AfterFunc(c.window, func() { c.flush(g, "window") })
	}
	if width < g.width {
		g.width = width
	}
	g.waiters = append(g.waiters, bw)
	bw.wait = t.StartSpan("coalesce", obs.RootSpan)
	full := len(g.waiters) >= g.width
	if full {
		c.detachLocked(g)
	}
	c.mu.Unlock()
	if full {
		c.dispatch(g, "full")
	}
	return bw, true
}

// detachLocked removes a group from the forming set (stopping its window
// timer) so exactly one flusher dispatches it. Callers hold c.mu.
func (c *Coalescer) detachLocked(g *batchGroup) {
	delete(c.groups, g.key)
	g.timer.Stop()
}

// flush dispatches a group from its window timer, unless the group
// already dispatched (filled, or drained by Close) — group identity in
// the forming map is the dispatch token.
//
// Batching is work-conserving: when the window expires while every
// worker is busy or jobs are already queued, flushing a shallow batch
// would not start it any sooner — it would only park fewer instances in
// the same pool queue. The group keeps forming and the timer re-arms,
// up to maxBatchDeferrals, so under load batches fill to their width
// and the window reverts to a pure latency bound for idle servers.
func (c *Coalescer) flush(g *batchGroup, reason string) {
	c.mu.Lock()
	if c.groups[g.key] != g {
		c.mu.Unlock()
		return
	}
	if reason == "window" && g.deferred < maxBatchDeferrals && c.srv.pool.Backlogged() {
		g.deferred++
		g.timer = time.AfterFunc(c.window, func() { c.flush(g, "window") })
		c.mu.Unlock()
		return
	}
	c.detachLocked(g)
	c.mu.Unlock()
	c.dispatch(g, reason)
}

// dispatch submits the formed batch as one pool job. A pool rejection
// (full queue, draining server) fails every member the same way a solo
// submit failure would.
func (c *Coalescer) dispatch(g *batchGroup, reason string) {
	c.srv.stats.ObserveBatch(len(g.waiters), reason)
	items := make([]harness.BatchItem, len(g.waiters))
	for i, bw := range g.waiters {
		items[i] = bw.item
	}
	err := c.srv.pool.Submit(func() {
		spans := make([]obs.SpanID, len(g.waiters))
		for i, bw := range g.waiters {
			c.srv.endStage(bw.t, bw.wait, "coalesce")
			spans[i] = bw.t.StartSpan("run", obs.RootSpan)
		}
		out, batchErr := harness.RunBatch(items)
		for i, bw := range g.waiters {
			if batchErr != nil {
				bw.out = harness.BatchOutcome{Err: batchErr}
			} else {
				bw.out = out[i]
			}
			c.srv.endStage(bw.t, spans[i], "run")
			bw.t.SetAttr(spans[i], "batch", int64(len(items)))
			if bw.out.Err == nil {
				bw.t.SetAttr(spans[i], "cycles", bw.out.Stats.Cycles)
			}
			close(bw.done)
		}
	})
	if err != nil {
		for _, bw := range g.waiters {
			bw.t.EndSpan(bw.wait)
			bw.submitErr = err
			close(bw.done)
		}
	}
}

// pending reports how many requests are parked in forming batches (for
// tests that synchronize on formation).
func (c *Coalescer) pending() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, g := range c.groups {
		n += len(g.waiters)
	}
	return n
}

// Close dispatches every forming batch and stops accepting members: the
// drain step of graceful shutdown, called before the pool drains so the
// flushed partials still find workers. Nil-safe.
func (c *Coalescer) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.closed = true
	var gs []*batchGroup
	for _, g := range c.groups {
		gs = append(gs, g)
	}
	for _, g := range gs {
		c.detachLocked(g)
	}
	c.mu.Unlock()
	for _, g := range gs {
		c.dispatch(g, "drain")
	}
}
