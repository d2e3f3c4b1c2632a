// Package server implements tyrd's HTTP service layer: a bounded worker
// pool running simulations behind the tyr-api/v1 endpoints, with per-request
// deadlines plumbed into the engines as cooperative stop flags, structured
// request logging, stdlib-only Prometheus metrics, and request-scoped
// observability (trace IDs, span trees, and the internal/obs flight
// recorder behind /v1/debug/requests). Compiled graphs belong to their
// workloads: a suite kernel's apps.App compiles each lowering once per
// process, and an inline source compiles once per request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/cancel"
	"repro/internal/compile"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prog"
)

// Config sizes the service. Zero values select sensible defaults.
type Config struct {
	// Workers bounds concurrently executing simulations (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds submissions waiting for a worker; anything beyond it
	// is rejected with 429 (default: 4x workers).
	QueueDepth int
	// DefaultTimeout applies when a request has no exec.deadline_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps a request's exec.deadline_ms (default 5m).
	MaxTimeout time.Duration
	// OracleMaxSteps caps the reference-interpreter oracle run that
	// validates inline `source` workloads (default 2^32 dynamic
	// instructions). The request deadline cancels the oracle too; this is
	// the hard backstop against programs that outrun any wall clock.
	OracleMaxSteps int64
	// Logger receives structured request logs; nil disables logging.
	Logger *slog.Logger
	// Flight configures the always-on flight recorder (ring size, slow
	// threshold, sampling, capture depth); zero values select the
	// internal/obs defaults.
	Flight obs.Config
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.OracleMaxSteps <= 0 {
		c.OracleMaxSteps = 1 << 32
	}
	return c
}

// Server is the tyrd service: construct with New, mount Handler on an
// http.Server, and Close after the http.Server has drained to let in-flight
// jobs finish.
type Server struct {
	cfg    Config
	pool   *Pool
	stats  *Metrics
	flight *obs.FlightRecorder
	log    *slog.Logger
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	stats := NewMetrics()
	return &Server{
		cfg:    cfg,
		pool:   NewPool(cfg.Workers, cfg.QueueDepth, stats),
		stats:  stats,
		flight: obs.NewFlightRecorder(cfg.Flight),
		log:    cfg.Logger,
	}
}

// Metrics exposes the counter set (shared with the pool).
func (s *Server) Metrics() *Metrics { return s.stats }

// Flight exposes the flight recorder (shared with the debug handler).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Close drains the service: the worker pool drains — queued and executing
// jobs complete, new submissions fail. Call after http.Server.Shutdown.
func (s *Server) Close() {
	s.pool.Close()
}

// Handler returns the v1 route table wrapped in request observation
// (trace IDs, spans, flight recording) and logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	return s.observe(mux)
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// observable reports whether a request runs a workload and therefore gets
// a span tree and a flight-recorder slot. Health, metrics, and debug reads
// still get a trace ID (header + log correlation) but stay out of the ring
// so introspection traffic never evicts the records it is there to read.
func observable(r *http.Request) bool {
	switch r.URL.Path {
	case "/v1/run", "/v1/sweep", "/v1/compile":
		return r.Method == http.MethodPost
	}
	return false
}

// observe is the outermost middleware: it assigns every request a trace ID
// (echoed in the Tyr-Trace-Id response header and stamped on the request's
// log line), opens the span tree for observable requests, and publishes
// the completed record to the flight recorder.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var t *obs.RequestTrace
		id := ""
		if observable(r) {
			// An inbound Tyr-Trace-Id (validated: hex, bounded length) is
			// adopted rather than replaced, so a client or proxy that
			// mints its own ID can join its logs to the flight record.
			t = s.flight.StartWithID(r.Method, r.URL.Path, r.Header.Get("Tyr-Trace-Id"))
			id = t.ID()
			r = r.WithContext(obs.NewContext(r.Context(), t))
		} else {
			id = obs.NewTraceID()
		}
		w.Header().Set("Tyr-Trace-Id", id)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		s.flight.Finish(t, rec.code)
		s.stats.ObserveRequest(r.URL.Path, rec.code)
		s.stats.ObserveDuration(r.URL.Path, dur)
		if s.log != nil {
			s.log.Info("request",
				"trace_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.code,
				"dur_ms", dur.Milliseconds(),
				"remote", r.RemoteAddr)
		}
	})
}

// endStage closes a span and feeds its duration to the per-stage latency
// histogram under the span's name.
func (s *Server) endStage(t *obs.RequestTrace, id obs.SpanID, stage string) {
	if d := t.EndSpan(id); d > 0 {
		s.stats.ObserveStage(stage, d)
	}
}

// writeJSON writes v as one line of compact JSON. It marshals before the
// status goes out, so a value that cannot be encoded becomes a 500 carrying
// the request's trace ID instead of a 200 with a truncated body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		// ErrorBody holds only strings, so this marshal cannot fail.
		body, _ = json.Marshal(api.ErrorBody{
			Version: api.Version,
			Error:   "encoding reply: " + err.Error(),
			TraceID: w.Header().Get("Tyr-Trace-Id"),
		})
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// writeError emits the structured tyr-api/v1 error body; validation errors
// carry their per-field detail. The request's trace ID rides along in the
// body (and on the flight record), so a 429 or 504 seen by a client can be
// joined to server logs and /v1/debug/requests without any header plumbing.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	t := obs.FromContext(r.Context())
	t.SetError(err.Error())
	body := api.ErrorBody{
		Version: api.Version,
		Error:   err.Error(),
		TraceID: w.Header().Get("Tyr-Trace-Id"),
	}
	var ve *api.ValidationError
	if errors.As(err, &ve) {
		body.Fields = ve.Fields
		// Migration notes (e.g. the retired top-level timeout_ms or
		// exec.shards) ride the structured error body so clients
		// migrating the API surface see the guidance on the same 400
		// that rejected them.
		body.Notes = ve.Notes
	}
	writeJSON(w, code, body)
}

// decode reads a JSON body strictly: unknown fields and trailing garbage are
// 400s, so typos in field names fail loudly instead of silently selecting
// defaults.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return errors.New("decoding request body: trailing data after JSON value")
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": api.Version, "status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.stats.WriteTo(w)
}

// handleCompile compiles inline IR without occupying a simulation worker:
// compilation is quick and bounded, so it runs on the request goroutine.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	t := obs.FromContext(r.Context())
	adm := t.StartSpan("admission", obs.RootSpan)
	var req api.CompileRequest
	if err := decode(r, &req); err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	p, err := prog.Parse(req.Source)
	if err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.Optimize {
		p = prog.Optimize(p)
	}
	s.endStage(t, adm, "admission")
	res := api.CompileResult{Version: api.Version, Name: p.Name}
	if req.Emit == "ir" {
		res.Listing = prog.Format(p)
		writeJSON(w, http.StatusOK, res)
		return
	}
	var g interface {
		MarshalText() ([]byte, error)
		Dot() string
	}
	opts := compile.Options{EntryArgs: req.Args}
	comp := t.StartSpan("compile", obs.RootSpan)
	if req.Lowering == "ordered" {
		g2, err := compile.Ordered(p, opts)
		if err != nil {
			s.endStage(t, comp, "compile")
			s.writeError(w, r, http.StatusUnprocessableEntity, err)
			return
		}
		g = g2
		st := g2.ComputeStats()
		res.Nodes, res.Blocks, res.TagOps, res.MemOps, res.Edges =
			st.Nodes, st.Blocks, st.TagOps, st.MemOps, st.EdgeCnt
	} else {
		g2, err := compile.Tagged(p, opts)
		if err != nil {
			s.endStage(t, comp, "compile")
			s.writeError(w, r, http.StatusUnprocessableEntity, err)
			return
		}
		g = g2
		st := g2.ComputeStats()
		res.Nodes, res.Blocks, res.TagOps, res.MemOps, res.Edges =
			st.Nodes, st.Blocks, st.TagOps, st.MemOps, st.EdgeCnt
	}
	s.endStage(t, comp, "compile")
	if req.Emit == "dot" {
		res.Listing = g.Dot()
	} else {
		text, err := g.MarshalText()
		if err != nil {
			s.writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		res.Listing = string(text)
	}
	writeJSON(w, http.StatusOK, res)
}

// timeout resolves a request's deadline from its exec.deadline_ms, clamped
// to the server's maximum.
func (s *Server) timeout(ms int64) time.Duration {
	to := s.cfg.DefaultTimeout
	if ms > 0 {
		to = time.Duration(ms) * time.Millisecond
	}
	if to > s.cfg.MaxTimeout {
		to = s.cfg.MaxTimeout
	}
	return to
}

// errJobPanic marks a submit error recovered from a panicking pool job; the
// handlers answer it with a 500.
var errJobPanic = errors.New("internal error: simulation job panicked")

// submit runs job on the pool and blocks until it finishes, timing the
// queue wait (submit to job start) as a span and a histogram sample — the
// service-level analog of the paper's allocate park. The job is
// responsible for observing stop promptly once the context ends — the
// handler never abandons a running simulation, it cancels it. A panic in
// job fails this request alone: it comes back as an error wrapping
// errJobPanic, and the worker goes on serving.
func (s *Server) submit(t *obs.RequestTrace, job func()) error {
	queued := time.Now()
	qs := t.StartSpan("queue", obs.RootSpan)
	done := make(chan error, 1)
	err := s.pool.Submit(func() {
		s.stats.ObserveQueueWait(time.Since(queued))
		s.endStage(t, qs, "queue")
		done <- s.runJob(t, job)
	})
	if err != nil {
		t.EndSpan(qs)
		return err
	}
	return <-done
}

// runJob calls job on the current pool worker and recovers a panic into an
// error. The stack goes to the log under the request's trace ID; the
// client sees only the panic value.
func (s *Server) runJob(t *obs.RequestTrace, job func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			s.stats.ObservePanic()
			if s.log != nil {
				s.log.Error("pool job panicked", "trace_id", t.ID(), "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			}
			err = fmt.Errorf("%w: %v", errJobPanic, v)
		}
	}()
	job()
	return nil
}

// writeSubmitError maps a submit failure to HTTP: a recovered job panic is
// a 500, a full queue is 429 with Retry-After (shed load, come back), a
// draining pool is 503 (this instance is exiting — retrying against it is
// pointless).
func (s *Server) writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errJobPanic):
		s.writeError(w, r, http.StatusInternalServerError, err)
	case errors.Is(err, ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, err)
	default:
		s.stats.busyTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusTooManyRequests, err)
	}
}

// finishCancelled maps a cancelled run to its HTTP status: deadline
// expiry is a 504 (the service gave up), client disconnect a 499-style 503.
func (s *Server) finishCancelled(w http.ResponseWriter, r *http.Request, ctx context.Context, err error) {
	s.stats.ObserveCancel()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.writeError(w, r, http.StatusGatewayTimeout,
			fmt.Errorf("deadline exceeded: %w", err))
		return
	}
	s.writeError(w, r, http.StatusServiceUnavailable,
		fmt.Errorf("request cancelled: %w", err))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t := obs.FromContext(r.Context())
	adm := t.StartSpan("admission", obs.RootSpan)
	var req api.Request
	if err := decode(r, &req); err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	plan, err := req.Plan()
	if err != nil {
		// Validation failures (including the deprecation-note-carrying
		// exec conflicts) are 400s; anything else Plan rejects is a
		// well-formed but unbuildable request, a 422.
		code := http.StatusUnprocessableEntity
		var ve *api.ValidationError
		if errors.As(err, &ve) {
			code = http.StatusBadRequest
		}
		s.endStage(t, adm, "admission")
		s.writeError(w, r, code, err)
		return
	}
	s.endStage(t, adm, "admission")

	ctx, cancelCtx := context.WithTimeout(r.Context(), s.timeout(plan.DeadlineMS))
	defer cancelCtx()
	flag := &cancel.Flag{}
	release := cancel.WatchContext(ctx, flag)
	defer release()
	sc := plan.Cfg
	sc.Stop = flag
	sc.Compiler = s.spanGraphs(t)
	sc.Tracer = t.Tracer() // nil unless the request was sampled
	sc.TraceID = t.ID()

	var rs metrics.RunStats
	var runErr error
	if err := s.submit(t, func() {
		if flag.Stopped() { // deadline passed while queued: skip the compile
			runErr = cancel.ErrStopped
			return
		}
		// Workload resolution happens here, on the worker, after the
		// deadline is armed: for inline sources it runs the reference
		// interpreter (the validation oracle), which is CPU-bound on user
		// input — on the request goroutine it would be uncancellable work
		// outside the pool's concurrency bound.
		res := t.StartSpan("resolve", obs.RootSpan)
		app, err := plan.ResolveAppBound(flag, s.cfg.OracleMaxSteps)
		s.endStage(t, res, "resolve")
		if err != nil {
			runErr = err
			return
		}
		run := t.StartSpan("run", obs.RootSpan)
		rs, runErr = harness.Run(app, req.System, sc)
		s.endStage(t, run, "run")
		t.SetAttr(run, "cycles", rs.Cycles)
		t.SetAttr(run, "fired", rs.Fired)
		t.SetAttr(run, "peak_tags", int64(rs.PeakTags))
	}); err != nil {
		s.writeSubmitError(w, r, err)
		return
	}

	switch {
	case errors.Is(runErr, cancel.ErrStopped):
		s.finishCancelled(w, r, ctx, runErr)
	case runErr != nil:
		s.writeError(w, r, http.StatusUnprocessableEntity, runErr)
	default:
		s.stats.ObserveRun(rs.System, rs.Cycles)
		writeJSON(w, http.StatusOK, api.RunResult{
			Version: api.Version,
			Stats:   rs,
			Checked: rs.Completed && !req.SkipCheck,
		})
	}
}

// sweepCell is one cell of the apps-major sweep grid.
type sweepCell struct {
	app *apps.App
	sys string
}

// sweepGrid materializes the request's kernel x system grid in apps-major
// order: cell index = appIdx*len(systems)+sysIdx, the order the reply
// lists the runs in.
func sweepGrid(req *api.SweepRequest, scale apps.Scale) (cells []sweepCell, systems []string) {
	suite := api.SharedSuite(scale)
	sel := suite
	if len(req.Apps) > 0 {
		sel = sel[:0:0]
		for _, name := range req.Apps {
			sel = append(sel, apps.Find(suite, name))
		}
	}
	systems = req.Systems
	if len(systems) == 0 {
		systems = harness.Systems
	}
	cells = make([]sweepCell, 0, len(sel)*len(systems))
	for _, app := range sel {
		for _, sys := range systems {
			cells = append(cells, sweepCell{app: app, sys: sys})
		}
	}
	return cells, systems
}

// sweep is one /v1/sweep grid in flight: the state its owner job and its
// helper jobs share. Cells are claimed one at a time in grid order, and
// each result lands in runs at its cell index, so the reply is in grid
// order whichever job ran a cell.
type sweep struct {
	s       *Server
	t       *obs.RequestTrace
	sc      harness.SysConfig // the helpers' config: the owner's without its tracer
	cells   []sweepCell
	runs    []metrics.RunStats
	helping sync.WaitGroup // cells claimed by helpers and not yet finished

	mu   sync.Mutex
	next int   // first unclaimed cell
	err  error // first failure; no cell is claimed after it
}

// runSweep runs the grid's cells and returns one RunStats per cell, in
// grid order. It is the one place that decides where a sweep's cells run.
// The caller is the sweep's pool job, its owner, and claims cells itself.
// It first offers up to Workers-1 helper jobs to the pool without
// blocking; a full queue or a draining pool refuses them, and the owner
// carries on alone. A helper runs one cell and then queues itself again
// behind whatever arrived meanwhile, so a sweep takes only idle workers
// and a queued /v1/run waits at most one cell. Once no cell is left, the
// owner waits only for cells that helpers have claimed, never for a helper
// that has not started: a helper stuck in the queue behind the owner's own
// worker cannot deadlock the sweep, as an allocate never waits on a tag
// that does not exist.
//
// The first failure stops further claims: a cell's error, a panic (which
// wraps errJobPanic), or sc's stop flag (cancel.ErrStopped). Only the
// owner's cells write sc's tracer, the one-writer capture ring; helper
// cells run untraced. Every cell gets its own "run app/sys" span.
func (s *Server) runSweep(t *obs.RequestTrace, sc harness.SysConfig, cells []sweepCell) ([]metrics.RunStats, error) {
	sw := &sweep{s: s, t: t, sc: sc, cells: cells, runs: make([]metrics.RunStats, len(cells))}
	sw.sc.Tracer = nil
	for range min(s.cfg.Workers, len(cells)) - 1 {
		_ = s.pool.Submit(sw.help) // refused: one helper fewer
	}
	for {
		i, ok := sw.claim(false)
		if !ok {
			break
		}
		// One capture ring, reset per cell: a sampled sweep keeps the
		// engine trace of the owner's last (or failing) cell rather
		// than an unreadable splice of every cell's tail.
		if sc.Tracer != nil {
			sc.Tracer.Reset()
		}
		sw.run(i, sc)
	}
	sw.helping.Wait()
	// A helper that starts after the grid ends still claims under the
	// lock, and may record a stop there.
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return nil, sw.err
	}
	return sw.runs, nil
}

// claim hands out the next cell, or reports that none is left: the grid
// is done, a cell failed, or the sweep was stopped. A helper's claim
// joins helping under the lock, so it is counted before the owner's last,
// failing claim and therefore before the owner waits.
func (sw *sweep) claim(helper bool) (int, bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err == nil && sw.sc.Stop.Stopped() {
		sw.err = cancel.ErrStopped
	}
	if sw.err != nil || sw.next == len(sw.cells) {
		return 0, false
	}
	if helper {
		sw.helping.Add(1)
	}
	sw.next++
	return sw.next - 1, true
}

// help is a helper job: it runs one cell, then queues itself again if
// cells are left.
func (sw *sweep) help() {
	i, ok := sw.claim(true)
	if !ok {
		return
	}
	sw.run(i, sw.sc)
	sw.helping.Done()
	sw.mu.Lock()
	more := sw.err == nil && sw.next < len(sw.cells)
	sw.mu.Unlock()
	if more {
		_ = sw.s.pool.Submit(sw.help) // refused: one helper fewer
	}
}

// run executes cell i under runJob's panic recovery, stores its stats at
// runs[i], and records the sweep's first failure.
func (sw *sweep) run(i int, sc harness.SysConfig) {
	s, t, cell := sw.s, sw.t, sw.cells[i]
	span := t.StartSpan("run "+cell.app.Name+"/"+cell.sys, obs.RootSpan)
	var rs metrics.RunStats
	var err error
	if perr := s.runJob(t, func() { rs, err = harness.Run(cell.app, cell.sys, sc) }); perr != nil {
		err = perr
	}
	s.endStage(t, span, "run")
	if err != nil {
		sw.mu.Lock()
		if sw.err == nil {
			sw.err = fmt.Errorf("%s/%s: %w", cell.app.Name, cell.sys, err)
		}
		sw.mu.Unlock()
		return
	}
	t.SetAttr(span, "cycles", rs.Cycles)
	t.SetAttr(span, "peak_tags", int64(rs.PeakTags))
	s.stats.ObserveRun(rs.System, rs.Cycles)
	sw.runs[i] = rs
}

// handleSweep runs the kernel x system grid as one pool job, the sweep's
// owner, which spreads the cells over idle workers (runSweep). The reply
// lists every cell in grid order, however the cells were spread.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	t := obs.FromContext(r.Context())
	adm := t.StartSpan("admission", obs.RootSpan)
	var req api.SweepRequest
	if err := decode(r, &req); err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	scale, err := api.ParseScale(req.Scale)
	if err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	cells, systems := sweepGrid(&req, scale)
	// Build the cache config once, up front: a bad spec fails the request
	// instead of silently degrading every cell to flat memory.
	cc, err := req.Cache.Config()
	if err != nil {
		s.endStage(t, adm, "admission")
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	s.endStage(t, adm, "admission")

	ctx, cancelCtx := context.WithTimeout(r.Context(), s.timeout(req.Exec.Deadline()))
	defer cancelCtx()
	flag := &cancel.Flag{}
	release := cancel.WatchContext(ctx, flag)
	defer release()
	// Cells never sample the live-state trace: the per-system summary
	// does not read it.
	sc := harness.SysConfig{
		IssueWidth:  req.IssueWidth,
		Tags:        req.Tags,
		Cache:       cc,
		TracePoints: -1,
		Stop:        flag,
		Compiler:    s.spanGraphs(t),
		Tracer:      t.Tracer(), // nil unless the request was sampled
		TraceID:     t.ID(),
	}

	var runs []metrics.RunStats
	var runErr error
	if err := s.submit(t, func() {
		runs, runErr = s.runSweep(t, sc, cells)
	}); err != nil {
		s.writeSubmitError(w, r, err)
		return
	}

	switch {
	case errors.Is(runErr, cancel.ErrStopped):
		s.finishCancelled(w, r, ctx, runErr)
	case errors.Is(runErr, errJobPanic):
		s.writeError(w, r, http.StatusInternalServerError, runErr)
	case runErr != nil:
		s.writeError(w, r, http.StatusUnprocessableEntity, runErr)
	default:
		writeJSON(w, http.StatusOK, api.SweepResult{
			Version: api.Version,
			Scale:   scaleName(req.Scale),
			Runs:    runs,
			Systems: api.Summarize(systems, runs),
		})
	}
}

// scaleName canonicalizes the empty scale to its default spelling for the
// result document.
func scaleName(s string) string {
	if s == "" {
		return "small"
	}
	return s
}
