// Package api defines tyr-api/v1: the versioned request/result schema
// shared by the tyrd simulation service and the CLIs. It consolidates the
// previously ad-hoc run surfaces — harness.SysConfig, cache.Config spec
// strings, tyr-telemetry/v1 run records, and tyr-bench/v1 summaries — into
// one canonical, validated JSON shape, so a request built by tyrsim, tyrc,
// or a curl against tyrd means exactly the same simulation.
//
// A Request selects a workload (a named suite kernel, or inline IR source
// validated against the reference interpreter), a system, and the machine
// parameters; Validate rejects malformed requests with field-level errors
// before any simulation starts, and SysConfig converts a valid request into
// the harness configuration that all five engines consume.
package api

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/benchreg"
	"repro/internal/cache"
	"repro/internal/cancel"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// Version is the schema identifier stamped on every request and result.
const Version = "tyr-api/v1"

// MaxTracePoints is the largest accepted trace_points. The engines hold
// every trace point for the whole run, so an unbounded value would let one
// request make the server keep memory proportional to its simulated cycles.
const MaxTracePoints = 65536

// Scales lists the accepted workload scales.
var Scales = []string{"tiny", "small", "medium"}

// ParseScale maps a scale name to the apps suite selector.
func ParseScale(s string) (apps.Scale, error) {
	switch s {
	case "", "small":
		return apps.ScaleSmall, nil
	case "tiny":
		return apps.ScaleTiny, nil
	case "medium":
		return apps.ScaleMedium, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want %s)", s, strings.Join(Scales, ", "))
}

// CacheSpec configures the two-level memory hierarchy in the CLI's
// spec-string form: L1/L2 overlay "sets=N,ways=N,line=N,lat=N" settings on
// the default hierarchy. A nil *CacheSpec means ideal flat memory.
type CacheSpec struct {
	L1 string `json:"l1,omitempty"`
	L2 string `json:"l2,omitempty"`
	// MemLatency is the cost of missing both levels (0 = default).
	MemLatency int64 `json:"mem_latency,omitempty"`
	// MSHRs bounds outstanding misses (0 = default).
	MSHRs int `json:"mshrs,omitempty"`
	// Passthrough measures miss rates without charging latency, keeping
	// cycle counts identical to flat memory.
	Passthrough bool `json:"passthrough,omitempty"`
}

// Config builds the cache configuration, overlaying the spec strings on the
// defaults. Nil receiver returns nil (flat memory).
func (s *CacheSpec) Config() (*cache.Config, error) {
	if s == nil {
		return nil, nil
	}
	cc := cache.DefaultConfig()
	var err error
	if cc.L1, err = cache.ParseLevel(cc.L1, s.L1); err != nil {
		return nil, fmt.Errorf("cache.l1: %w", err)
	}
	if cc.L2, err = cache.ParseLevel(cc.L2, s.L2); err != nil {
		return nil, fmt.Errorf("cache.l2: %w", err)
	}
	if s.MemLatency != 0 {
		cc.MemLatency = s.MemLatency
	}
	if s.MSHRs != 0 {
		cc.MSHRs = s.MSHRs
	}
	cc.Passthrough = s.Passthrough
	return &cc, nil
}

// ExecSpec is the versioned execution block of a request: how the
// simulation is scheduled, as opposed to what machine it models. Its one
// live knob is deadline_ms.
type ExecSpec struct {
	// Shards and Batch are retired: sharded execution (DESIGN.md §11) and
	// lockstep batching (§12) were removed. Both still decode so old
	// clients get a structured answer. 0 or 1, which always meant one
	// solo run, is accepted and ignored; anything above 1 is a field
	// error with a migration note.
	Shards int `json:"shards,omitempty"`
	Batch  int `json:"batch,omitempty"`
	// DeadlineMS bounds the run's wall clock; the service cancels the
	// engine at the deadline and reports 504. Zero means the server
	// default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Request is one simulation: a workload on a system under a machine
// configuration. The zero values of all optional fields select the paper's
// defaults, so the minimal valid request is {"system":"tyr","app":"dmv"}.
type Request struct {
	// Version, when set, must be "tyr-api/v1". Empty is accepted and
	// means the current version.
	Version string `json:"version,omitempty"`

	// App names a suite kernel (dmv, dmm, dconv, smv, spmspv, spmspm, tc)
	// at Scale. Exactly one of App and Source must be set.
	App   string `json:"app,omitempty"`
	Scale string `json:"scale,omitempty"` // tiny, small (default), medium

	// Source is inline IR (the tyrc concrete syntax); the run is validated
	// against the reference interpreter exactly like a suite kernel.
	Source string `json:"source,omitempty"`
	// Args are the entry arguments for Source runs.
	Args []int64 `json:"args,omitempty"`
	// Optimize runs the IR optimizer (fold, simplify, DCE) on Source.
	Optimize bool `json:"optimize,omitempty"`

	// System is one of vN, seqdf, ordered, unordered, tyr.
	System string `json:"system"`

	IssueWidth  int            `json:"issue_width,omitempty"`
	Tags        int            `json:"tags,omitempty"`
	BlockTags   map[string]int `json:"block_tags,omitempty"`
	GlobalTags  int            `json:"global_tags,omitempty"`
	QueueCap    int            `json:"queue_cap,omitempty"`
	LoadLatency int            `json:"load_latency,omitempty"`
	Cache       *CacheSpec     `json:"cache,omitempty"`
	// TracePoints opts in to the live-state trace (stats.trace): a positive
	// value returns at most that many {cycle, live} points (at most
	// MaxTracePoints; the run's final point always survives, so 1 may
	// return two). Zero or negative, the default, samples nothing.
	TracePoints int  `json:"trace_points,omitempty"`
	SkipCheck   bool `json:"skip_check,omitempty"`
	Sanitize    bool `json:"sanitize,omitempty"`
	// MaxCycles overrides the engine's runaway budget.
	MaxCycles int64 `json:"max_cycles,omitempty"`

	// Exec holds the scheduling knob deadline_ms (plus the retired
	// shards and batch, which decode only to answer old clients).
	Exec *ExecSpec `json:"exec,omitempty"`

	// Shards is the old top-level spelling of exec.shards, retired with
	// it under the same rules.
	Shards int `json:"shards,omitempty"`
	// TimeoutMS is the deprecated top-level spelling of exec.deadline_ms;
	// it still decodes (a validation failure's 400 body carries a
	// deprecation note), but setting both to different values is an
	// error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// The migration notes a 400 carries when a request still asks for more
// than one shard or batch instance.
const (
	shardsRemovedNote = `exec.shards is retired: sharded execution ran slower than one goroutine and was removed; ` +
		`drop the field (every run uses one goroutine, and tyrd runs requests in parallel across its worker pool)`
	batchRemovedNote = `exec.batch is retired: lockstep batching never beat solo runs on served traffic and was removed; ` +
		`drop the field (every run is a solo run, and tyrd runs requests in parallel across its worker pool)`
)

// ExecDeadlineMS resolves the effective wall-clock bound across the exec
// block and the deprecated top-level field.
func (r *Request) ExecDeadlineMS() int64 {
	if r.Exec != nil && r.Exec.DeadlineMS != 0 {
		return r.Exec.DeadlineMS
	}
	return r.TimeoutMS
}

// RunResult is the outcome of one /v1/run request: the uniform
// tyr-telemetry/v1 record of the run.
type RunResult struct {
	Version string           `json:"version"`
	Stats   metrics.RunStats `json:"stats"`
	// Checked reports whether the run's outputs were validated against
	// the workload's native reference (false for SkipCheck and
	// deadlocked runs).
	Checked bool `json:"checked"`
}

// FieldError reports one invalid request field.
type FieldError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Message }

// ValidationError aggregates every invalid field of a request, so a client
// sees all problems at once. Notes carry non-fatal advisories (deprecated
// spellings) that ride along on the structured 400 body.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
	Notes  []string     `json:"notes,omitempty"`
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "invalid request: " + strings.Join(msgs, "; ")
}

func checkVersion(v string, errs *[]FieldError) {
	if v != "" && v != Version {
		*errs = append(*errs, FieldError{"version", fmt.Sprintf("unsupported version %q (this server speaks %s)", v, Version)})
	}
}

func checkNonNegative(errs *[]FieldError, fields map[string]int64) {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if fields[name] < 0 {
			*errs = append(*errs, FieldError{name, fmt.Sprintf("must be >= 0 (got %d)", fields[name])})
		}
	}
}

// retiredKnob is an exec knob whose feature was removed.
type retiredKnob struct {
	feature string // what was removed, named in the field error
	note    string // the migration note the 400 carries
}

var (
	shardsRetired = retiredKnob{"sharded execution", shardsRemovedNote}
	batchRetired  = retiredKnob{"lockstep batching", batchRemovedNote}
)

// check rejects a count above 1 on field with a field error and the
// knob's migration note, added once however many spellings tripped it.
// 0 or 1 passes.
func (k retiredKnob) check(errs *[]FieldError, notes *[]string, field string, n int) {
	if n <= 1 {
		return
	}
	*errs = append(*errs, FieldError{field, fmt.Sprintf("%s was removed; only 0 or 1 is accepted (got %d)", k.feature, n)})
	if !slices.Contains(*notes, k.note) {
		*notes = append(*notes, k.note)
	}
}

// KnownSystem reports whether name is one of the five simulated systems.
func KnownSystem(name string) bool {
	for _, s := range harness.Systems {
		if s == name {
			return true
		}
	}
	return false
}

// Validate checks the request shape without running anything. The returned
// error is a *ValidationError listing every bad field.
func (r *Request) Validate() error {
	var errs []FieldError
	checkVersion(r.Version, &errs)
	if !KnownSystem(r.System) {
		errs = append(errs, FieldError{"system", fmt.Sprintf("unknown system %q (want %s)", r.System, strings.Join(harness.Systems, ", "))})
	}
	switch {
	case r.App == "" && r.Source == "":
		errs = append(errs, FieldError{"app", "one of app or source is required"})
	case r.App != "" && r.Source != "":
		errs = append(errs, FieldError{"app", "app and source are mutually exclusive"})
	case r.App != "":
		if _, err := ParseScale(r.Scale); err != nil {
			errs = append(errs, FieldError{"scale", err.Error()})
		} else if sc, _ := ParseScale(r.Scale); apps.Find(apps.Suite(sc), r.App) == nil {
			errs = append(errs, FieldError{"app", fmt.Sprintf("unknown app %q", r.App)})
		}
	case r.Source != "":
		if _, err := prog.Parse(r.Source); err != nil {
			errs = append(errs, FieldError{"source", err.Error()})
		}
	}
	fields := map[string]int64{
		"issue_width":  int64(r.IssueWidth),
		"tags":         int64(r.Tags),
		"global_tags":  int64(r.GlobalTags),
		"queue_cap":    int64(r.QueueCap),
		"load_latency": int64(r.LoadLatency),
		"shards":       int64(r.Shards),
		"max_cycles":   r.MaxCycles,
		"timeout_ms":   r.TimeoutMS,
	}
	if r.Exec != nil {
		fields["exec.shards"] = int64(r.Exec.Shards)
		fields["exec.batch"] = int64(r.Exec.Batch)
		fields["exec.deadline_ms"] = r.Exec.DeadlineMS
	}
	checkNonNegative(&errs, fields)
	if r.TracePoints > MaxTracePoints {
		errs = append(errs, FieldError{"trace_points", fmt.Sprintf("must be <= %d (got %d)", MaxTracePoints, r.TracePoints)})
	}
	var notes []string
	shardsRetired.check(&errs, &notes, "shards", r.Shards)
	if r.Exec != nil {
		shardsRetired.check(&errs, &notes, "exec.shards", r.Exec.Shards)
		batchRetired.check(&errs, &notes, "exec.batch", r.Exec.Batch)
	}
	if r.TimeoutMS != 0 {
		notes = append(notes, `top-level "timeout_ms" is deprecated; use exec.deadline_ms`)
		if r.Exec != nil && r.Exec.DeadlineMS != 0 && r.Exec.DeadlineMS != r.TimeoutMS {
			errs = append(errs, FieldError{"timeout_ms", fmt.Sprintf("conflicts with exec.deadline_ms (%d vs %d)", r.TimeoutMS, r.Exec.DeadlineMS)})
		}
	}
	if _, err := r.Cache.Config(); err != nil {
		errs = append(errs, FieldError{"cache", err.Error()})
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs, Notes: notes}
	}
	return nil
}

// Plan is the one validated execution plan every tool consumes (tyrd,
// tyrsim, tyrc, tyrexp via internal/cliflags): the harness configuration
// with the exec block resolved, the scheduling knobs spelled out, and the
// workload resolvers — replacing the former SysConfig()/ResolveApp()
// bridge sprawl so new exec knobs surface in exactly one place.
type Plan struct {
	// Cfg is the harness configuration. Per-call plumbing (Stop,
	// Telemetry, Tracer, Compiler) is left for the caller to attach.
	Cfg harness.SysConfig
	// DeadlineMS is the resolved exec deadline; zero means the server or
	// CLI default.
	DeadlineMS int64

	req *Request
}

// Plan validates the request and converts it into the execution plan. The
// returned error is the same *ValidationError Validate reports.
func (r *Request) Plan() (*Plan, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	cc, err := r.Cache.Config()
	if err != nil {
		return nil, err
	}
	// The live-state trace is opt-in: without a positive trace_points the
	// engines sample nothing, rather than their default series.
	tracePoints := r.TracePoints
	if tracePoints <= 0 {
		tracePoints = -1
	}
	return &Plan{
		Cfg: harness.SysConfig{
			IssueWidth:  r.IssueWidth,
			Tags:        r.Tags,
			BlockTags:   r.BlockTags,
			GlobalTags:  r.GlobalTags,
			QueueCap:    r.QueueCap,
			LoadLatency: r.LoadLatency,
			Cache:       cc,
			TracePoints: tracePoints,
			SkipCheck:   r.SkipCheck,
			Sanitize:    r.Sanitize,
			MaxCycles:   r.MaxCycles,
		},
		DeadlineMS: r.ExecDeadlineMS(),
		req:        r,
	}, nil
}

// ResolveApp materializes the plan's workload: a suite kernel at the
// requested scale, or the inline source wrapped via apps.FromProgram
// (which runs the reference interpreter once to build the validation
// oracle). The oracle run is unbounded; it is the CLI entry point, where
// the user's own program runs on the user's own machine. Services must
// use ResolveAppBound instead.
func (p *Plan) ResolveApp() (*apps.App, error) {
	return p.ResolveAppBound(nil, 0)
}

// ResolveAppBound is ResolveApp with the inline-source oracle run bounded:
// stop cancels the reference interpreter at its next instruction boundary
// (the error then wraps cancel.ErrStopped) and maxSteps caps its dynamic
// instruction budget (0 keeps the interpreter default). Suite kernels are
// unaffected — their oracles are precomputed. The oracle run is CPU-bound
// on user input, so tyrd resolves sources on a pool worker through this
// entry point, never on a request goroutine through ResolveApp.
func (p *Plan) ResolveAppBound(stop *cancel.Flag, maxSteps int64) (*apps.App, error) {
	r := p.req
	if r.Source != "" {
		pr, err := prog.Parse(r.Source)
		if err != nil {
			return nil, err
		}
		if r.Optimize {
			pr = prog.Optimize(pr)
		}
		return apps.FromProgramConfig("", pr, prog.RunConfig{
			Args:     r.Args,
			MaxSteps: maxSteps,
			Stop:     stop,
		})
	}
	sc, err := ParseScale(r.Scale)
	if err != nil {
		return nil, err
	}
	app := apps.Find(apps.Suite(sc), r.App)
	if app == nil {
		return nil, fmt.Errorf("unknown app %q", r.App)
	}
	return app, nil
}

// SweepRequest runs a kernel x system grid — the /v1/sweep analog of
// `tyrexp bench` — and summarizes it as a tyr-bench/v1 document.
type SweepRequest struct {
	Version string `json:"version,omitempty"`
	Scale   string `json:"scale,omitempty"`
	// Apps and Systems select the grid; empty means all seven kernels /
	// all five systems.
	Apps    []string `json:"apps,omitempty"`
	Systems []string `json:"systems,omitempty"`

	IssueWidth int        `json:"issue_width,omitempty"`
	Tags       int        `json:"tags,omitempty"`
	Cache      *CacheSpec `json:"cache,omitempty"`
	// TimeoutMS bounds the whole sweep's wall clock.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// CellStart/CellCount select a contiguous range of the apps-major grid
	// (cell index = appIdx*len(systems)+sysIdx) instead of the whole grid —
	// the unit the fleet coordinator fans out to peers. CellCount 0 with
	// CellStart 0 means the full grid; a non-zero CellCount selects exactly
	// [CellStart, CellStart+CellCount). A server never re-distributes a
	// request with an explicit range, so fan-out cannot recurse.
	CellStart int `json:"cell_start,omitempty"`
	CellCount int `json:"cell_count,omitempty"`
}

// Validate checks the sweep shape without running anything.
func (r *SweepRequest) Validate() error {
	var errs []FieldError
	checkVersion(r.Version, &errs)
	sc, err := ParseScale(r.Scale)
	if err != nil {
		errs = append(errs, FieldError{"scale", err.Error()})
	} else {
		suite := apps.Suite(sc)
		for _, name := range r.Apps {
			if apps.Find(suite, name) == nil {
				errs = append(errs, FieldError{"apps", fmt.Sprintf("unknown app %q", name)})
			}
		}
	}
	for _, sys := range r.Systems {
		if !KnownSystem(sys) {
			errs = append(errs, FieldError{"systems", fmt.Sprintf("unknown system %q", sys)})
		}
	}
	checkNonNegative(&errs, map[string]int64{
		"issue_width": int64(r.IssueWidth),
		"tags":        int64(r.Tags),
		"timeout_ms":  r.TimeoutMS,
		"cell_start":  int64(r.CellStart),
		"cell_count":  int64(r.CellCount),
	})
	if _, err := r.Cache.Config(); err != nil {
		errs = append(errs, FieldError{"cache", err.Error()})
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// SweepResult reports every cell of the grid plus the per-system summary.
type SweepResult struct {
	Version string `json:"version"`
	Scale   string `json:"scale"`
	// Runs is one tyr-telemetry/v1 record per grid cell, in apps-major
	// order (deterministic regardless of worker scheduling).
	Runs []metrics.RunStats `json:"runs"`
	// Systems is the tyr-bench/v1 per-system aggregate.
	Systems []benchreg.System `json:"systems"`
}

// CompileRequest compiles inline IR without running it — the /v1/compile
// analog of `tyrc -emit`.
type CompileRequest struct {
	Version  string  `json:"version,omitempty"`
	Source   string  `json:"source"`
	Args     []int64 `json:"args,omitempty"`
	Optimize bool    `json:"optimize,omitempty"`
	// Lowering selects the graph form: "tagged" (default) or "ordered".
	Lowering string `json:"lowering,omitempty"`
	// Emit selects the listing format: "asm" (default), "dot", or "ir".
	Emit string `json:"emit,omitempty"`
}

// Validate checks the compile request shape.
func (r *CompileRequest) Validate() error {
	var errs []FieldError
	checkVersion(r.Version, &errs)
	if r.Source == "" {
		errs = append(errs, FieldError{"source", "is required"})
	} else if _, err := prog.Parse(r.Source); err != nil {
		errs = append(errs, FieldError{"source", err.Error()})
	}
	switch r.Lowering {
	case "", "tagged", "ordered":
	default:
		errs = append(errs, FieldError{"lowering", fmt.Sprintf("unknown lowering %q (want tagged, ordered)", r.Lowering)})
	}
	switch r.Emit {
	case "", "asm", "dot", "ir":
	default:
		errs = append(errs, FieldError{"emit", fmt.Sprintf("unknown emit %q (want asm, dot, ir)", r.Emit)})
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// CompileResult reports a compiled graph: its listing in the requested form
// plus static statistics.
type CompileResult struct {
	Version string `json:"version"`
	Name    string `json:"name"`
	Listing string `json:"listing"`
	Nodes   int    `json:"nodes"`
	Blocks  int    `json:"blocks"`
	TagOps  int    `json:"tag_ops"`
	MemOps  int    `json:"mem_ops"`
	Edges   int    `json:"edges"`
}

// ErrorBody is the structured error payload every non-2xx tyrd response
// carries.
type ErrorBody struct {
	Version string `json:"version"`
	Error   string `json:"error"`
	// TraceID is the request's trace ID (also in the Tyr-Trace-Id response
	// header): quote it to correlate a 429/504 with server logs and the
	// /v1/debug/requests flight recorder.
	TraceID string `json:"trace_id,omitempty"`
	// Fields carries per-field detail for validation failures.
	Fields []FieldError `json:"fields,omitempty"`
	// Notes carries non-fatal advisories (e.g. deprecated request
	// spellings) alongside a validation failure.
	Notes []string `json:"notes,omitempty"`
}
