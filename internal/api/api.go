// Package api defines tyr-api/v1: the versioned request/result schema
// shared by the tyrd simulation service and the CLIs. It consolidates the
// previously ad-hoc run surfaces — harness.SysConfig, cache.Config spec
// strings, tyr-telemetry/v1 run records, and the per-system sweep
// summary — into one canonical, validated JSON shape, so a request built
// by tyrsim, tyrc, or a curl against tyrd means exactly the same
// simulation.
//
// A Request selects a workload (a named suite kernel, or inline IR source
// validated against the reference interpreter), a system, and the machine
// parameters; Validate rejects malformed requests with field-level errors
// before any simulation starts, and Request.Plan converts a valid request
// into the harness configuration that all five engines consume.
package api

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/apps"
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

// MaxSourceWords is the largest number of memory words an inline source's
// mem declarations may add up to. The memory image allocates every
// declared word up front, once for the reference interpreter and again for
// each run, so without a cap a 50-byte program could make the server
// allocate as much memory as it declares.
const MaxSourceWords = 1 << 20

// MaxTagPoolWords is the largest number of tags an inline source may make
// a tyr run hold in its pools: the program's concurrent blocks (one per
// reachable function, one per loop) times the largest tag pool the
// request sets. The engine fills every block's pool before the first
// cycle, at 8 bytes a tag, so without a cap a source of many small loops
// at a large tags value could allocate gigabytes. The cap is 32 MiB of
// pools. The densest source that fits tyrd's 1 MiB body has 58,563
// blocks (empty functions, each called once), so every source tyrd
// admits stays under the cap at the default 64 tags.
const MaxTagPoolWords = 1 << 22

// MaxMachineSize is the largest accepted issue_width, tags, block_tags
// value and global_tags. The engines size per-run state by these values
// before the first cycle (the IPC histogram by issue width, each tag pool
// by its tag count), so an unbounded value would let one request allocate
// without limit. Every committed sweep stops at 512.
const MaxMachineSize = 1 << 16

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

// suites holds one suite per scale, each built on its first use.
var suites = [...]func() []*apps.App{
	apps.ScaleTiny:   sync.OnceValue(func() []*apps.App { return apps.Suite(apps.ScaleTiny) }),
	apps.ScaleSmall:  sync.OnceValue(func() []*apps.App { return apps.Suite(apps.ScaleSmall) }),
	apps.ScaleMedium: sync.OnceValue(func() []*apps.App { return apps.Suite(apps.ScaleMedium) }),
}

// SharedSuite returns the process-wide suite at scale s, built once and
// shared by every request that names a suite kernel: validation, workload
// resolution and sweep grids all read the same apps instead of building a
// suite each. Each app also holds its compiled graphs (App.Tagged,
// App.Ordered), so every run of a kernel shares one graph per lowering.
// Callers must not modify the slice or the apps. Sharing is safe because
// runs clone each app's input image (App.NewImage), every Check only
// reads, and the engines never write a graph. apps.Suite still builds a
// fresh suite for callers that want one.
func SharedSuite(s apps.Scale) []*apps.App { return suites[s]() }

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

// ExecSpec is the versioned execution block of a /v1/run or /v1/sweep
// request: how the simulation is scheduled, as opposed to what machine it
// models. Its one live knob is deadline_ms.
type ExecSpec struct {
	// Shards and Batch are retired: sharded execution (DESIGN.md §11) and
	// lockstep batching (§12) were removed. Both still decode so old
	// clients get a structured answer. 0 or 1, which always meant one
	// solo run, is accepted and ignored; anything above 1 is a field
	// error with a migration note.
	Shards int `json:"shards,omitempty"`
	Batch  int `json:"batch,omitempty"`
	// DeadlineMS bounds the request's wall clock (a sweep's, all its
	// cells included); the service cancels the engine at the deadline and
	// reports 504. Zero means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Deadline returns the exec deadline; zero, for a nil block too, means
// the server or CLI default.
func (e *ExecSpec) Deadline() int64 {
	if e == nil {
		return 0
	}
	return e.DeadlineMS
}

// check validates an exec block the same way on every endpoint.
func (e *ExecSpec) check(errs *[]FieldError, notes *[]string) {
	if e == nil {
		return
	}
	checkNonNegative(errs, map[string]int64{
		"exec.shards":      int64(e.Shards),
		"exec.batch":       int64(e.Batch),
		"exec.deadline_ms": e.DeadlineMS,
	})
	shardsRetired.check(errs, notes, "exec.shards", int64(e.Shards))
	batchRetired.check(errs, notes, "exec.batch", int64(e.Batch))
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
	// TimeoutMS is the retired top-level spelling of exec.deadline_ms. It
	// decodes only so an old client gets a structured answer: 0 is
	// ignored, anything else is a field error with a migration note.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// The migration notes a 400 carries when a request still asks for more
// than one shard or batch instance, or for a sweep cell range.
const (
	shardsRemovedNote = `exec.shards is retired: sharded execution ran slower than one goroutine and was removed; ` +
		`drop the field (every run uses one goroutine, and tyrd runs requests in parallel across its worker pool)`
	batchRemovedNote = `exec.batch is retired: lockstep batching never beat solo runs on served traffic and was removed; ` +
		`drop the field (every run is a solo run, and tyrd runs requests in parallel across its worker pool)`
	cellRangeRemovedNote = `cell_start and cell_count are retired: the fleet coordinator that sent them was removed; ` +
		`drop both fields (one tyrd fans a sweep's cells out over its own workers)`
	timeoutRemovedNote = `top-level timeout_ms is retired: the deadline is spelled exec.deadline_ms on /v1/run and /v1/sweep; ` +
		`move the value there ({"exec":{"deadline_ms":N}})`
)

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

// checkMachineSize rejects a machine size above MaxMachineSize.
func checkMachineSize(errs *[]FieldError, field string, n int) {
	if n > MaxMachineSize {
		*errs = append(*errs, FieldError{field, fmt.Sprintf("must be <= %d (got %d)", MaxMachineSize, n)})
	}
}

// checkBlockTags rejects every block_tags value above MaxMachineSize, in
// block-name order.
func checkBlockTags(errs *[]FieldError, blockTags map[string]int) {
	names := make([]string, 0, len(blockTags))
	for name, n := range blockTags {
		if n > MaxMachineSize {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		*errs = append(*errs, FieldError{"block_tags", fmt.Sprintf("block %q: must be <= %d (got %d)", name, MaxMachineSize, blockTags[name])})
	}
}

// checkSourceWords rejects a program whose mem declarations add up to more
// than MaxSourceWords. Negative sizes are left to prog.Check.
func checkSourceWords(p *prog.Program) error {
	words := 0
	for _, m := range p.Mems {
		if m.Size > MaxSourceWords-words {
			return fmt.Errorf("mem declarations exceed %d words in total (region %q declares %d)", MaxSourceWords, m.Name, m.Size)
		}
		if m.Size > 0 {
			words += m.Size
		}
	}
	return nil
}

// checkTagPools rejects, on field tags, a tyr run of p whose tag pools
// would hold more than MaxTagPoolWords tags. A pool above MaxMachineSize
// is left to checkMachineSize.
func checkTagPools(errs *[]FieldError, p *prog.Program, tags int, blockTags map[string]int) {
	pool := tags
	if pool <= 0 {
		pool = 64 // the engine's default tags per block
	}
	for _, n := range blockTags {
		pool = max(pool, n)
	}
	if pool > MaxMachineSize {
		return
	}
	if blocks := concurrentBlocks(p); blocks > MaxTagPoolWords/pool {
		*errs = append(*errs, FieldError{"tags", fmt.Sprintf(
			"%d concurrent blocks x %d tags exceeds the %d-tag pool cap; lower tags or block_tags", blocks, pool, MaxTagPoolWords)})
	}
}

// concurrentBlocks counts the concurrent blocks the tagged lowering gives
// p, each with its own tag pool: one per function reachable from the
// entry and one per loop in those functions.
func concurrentBlocks(p *prog.Program) int {
	funcs := make(map[string]*prog.Func, len(p.Funcs))
	for _, f := range p.Funcs {
		funcs[f.Name] = f // a duplicate name fails prog.Check before any run
	}
	n := 0
	seen := map[string]bool{p.Entry: true}
	work := []string{p.Entry}
	for len(work) > 0 {
		f := funcs[work[len(work)-1]]
		work = work[:len(work)-1]
		if f == nil {
			continue
		}
		n += 1 + countLoops(f.Body)
		for _, callee := range prog.CallsIn(f.Body, []prog.Expr{f.Ret}) {
			if !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
		}
	}
	return n
}

// countLoops counts the loops in stmts, nested ones included.
func countLoops(stmts []prog.Stmt) int {
	n := 0
	for _, st := range stmts {
		switch st := st.(type) {
		case prog.If:
			n += countLoops(st.Then) + countLoops(st.Else)
		case prog.While:
			n += 1 + countLoops(st.Body)
		}
	}
	return n
}

// retiredKnob is a request field whose feature was removed.
type retiredKnob struct {
	feature string // what was removed, named in the field error
	note    string // the migration note the 400 carries
	max     int64  // the largest value accepted and ignored: 0 or 1
}

var (
	shardsRetired    = retiredKnob{"sharded execution", shardsRemovedNote, 1}
	batchRetired     = retiredKnob{"lockstep batching", batchRemovedNote, 1}
	cellRangeRetired = retiredKnob{"the fleet", cellRangeRemovedNote, 0}
	timeoutRetired   = retiredKnob{"the top-level deadline spelling", timeoutRemovedNote, 0}
)

// check rejects a value above the knob's max on field with a field error
// and the knob's migration note, added once however many spellings
// tripped it. Negative values are left to checkNonNegative.
func (k retiredKnob) check(errs *[]FieldError, notes *[]string, field string, n int64) {
	if n <= k.max {
		return
	}
	accepted := "0 or 1"
	if k.max == 0 {
		accepted = "0"
	}
	*errs = append(*errs, FieldError{field, fmt.Sprintf("%s was removed; only %s is accepted (got %d)", k.feature, accepted, n)})
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
		if sc, err := ParseScale(r.Scale); err != nil {
			errs = append(errs, FieldError{"scale", err.Error()})
		} else if apps.Find(SharedSuite(sc), r.App) == nil {
			errs = append(errs, FieldError{"app", fmt.Sprintf("unknown app %q", r.App)})
		}
	case r.Source != "":
		if p, err := prog.Parse(r.Source); err != nil {
			errs = append(errs, FieldError{"source", err.Error()})
		} else if err := checkSourceWords(p); err != nil {
			errs = append(errs, FieldError{"source", err.Error()})
		} else if r.System == harness.SysTyr {
			checkTagPools(&errs, p, r.Tags, r.BlockTags)
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
	checkNonNegative(&errs, fields)
	checkMachineSize(&errs, "issue_width", r.IssueWidth)
	checkMachineSize(&errs, "tags", r.Tags)
	checkBlockTags(&errs, r.BlockTags)
	checkMachineSize(&errs, "global_tags", r.GlobalTags)
	if r.TracePoints > MaxTracePoints {
		errs = append(errs, FieldError{"trace_points", fmt.Sprintf("must be <= %d (got %d)", MaxTracePoints, r.TracePoints)})
	}
	var notes []string
	shardsRetired.check(&errs, &notes, "shards", int64(r.Shards))
	r.Exec.check(&errs, &notes)
	timeoutRetired.check(&errs, &notes, "timeout_ms", r.TimeoutMS)
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
		DeadlineMS: r.Exec.Deadline(),
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
	app := apps.Find(SharedSuite(sc), r.App)
	if app == nil {
		return nil, fmt.Errorf("unknown app %q", r.App)
	}
	return app, nil
}

// SweepRequest runs a kernel x system grid and summarizes it per system.
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
	// Exec is validated exactly like Request.Exec; its deadline_ms bounds
	// the whole sweep's wall clock.
	Exec *ExecSpec `json:"exec,omitempty"`
	// TimeoutMS is the retired top-level spelling of exec.deadline_ms,
	// retired as on Request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// CellStart and CellCount are retired: they addressed the cell range a
	// fleet coordinator sent a peer, and the fleet was removed (DESIGN.md
	// §10). Both still decode so old clients get a structured answer: 0 is
	// accepted and ignored, anything above is a field error with a
	// migration note.
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
		suite := SharedSuite(sc)
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
	checkMachineSize(&errs, "issue_width", r.IssueWidth)
	checkMachineSize(&errs, "tags", r.Tags)
	var notes []string
	r.Exec.check(&errs, &notes)
	timeoutRetired.check(&errs, &notes, "timeout_ms", r.TimeoutMS)
	cellRangeRetired.check(&errs, &notes, "cell_start", int64(r.CellStart))
	cellRangeRetired.check(&errs, &notes, "cell_count", int64(r.CellCount))
	if _, err := r.Cache.Config(); err != nil {
		errs = append(errs, FieldError{"cache", err.Error()})
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs, Notes: notes}
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
	// Systems is the per-system aggregate (Summarize).
	Systems []SystemSummary `json:"systems"`
}

// SystemSummary is one simulated machine's aggregate over a sweep's runs.
type SystemSummary struct {
	System      string  `json:"system"`
	GmeanCycles float64 `json:"gmean_cycles"`
	WallNS      int64   `json:"wall_ns"` // summed across runs
	// Cache behavior, when runs carry cache counters: miss rates are
	// summed misses over summed accesses, MeanAMAT the mean of the
	// per-run AMATs.
	L1MissRate float64 `json:"l1_miss_rate"`
	L2MissRate float64 `json:"l2_miss_rate"`
	MeanAMAT   float64 `json:"mean_amat"`
	// ReqPerSec is runs divided by summed wall-clock seconds. Like WallNS
	// it is host time, not simulated behavior.
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
}

// Summarize aggregates runs per system, in the order of systems. A listed
// system with no runs is omitted, and runs of unlisted systems are
// ignored.
func Summarize(systems []string, runs []metrics.RunStats) []SystemSummary {
	type agg struct {
		cycles                       []float64
		wall                         int64
		l1Acc, l1Miss, l2Acc, l2Miss int64
		amatSum                      float64
		cached                       int
	}
	by := map[string]*agg{}
	for _, rs := range runs {
		a := by[rs.System]
		if a == nil {
			a = &agg{}
			by[rs.System] = a
		}
		a.cycles = append(a.cycles, float64(rs.Cycles))
		a.wall += rs.WallNS
		if c := rs.Cache; c != nil {
			a.l1Acc += c.L1.Accesses
			a.l1Miss += c.L1.Misses
			a.l2Acc += c.L2.Accesses
			a.l2Miss += c.L2.Misses
			a.amatSum += c.AMAT
			a.cached++
		}
	}
	var out []SystemSummary
	for _, sys := range systems {
		a := by[sys]
		if a == nil {
			continue
		}
		s := SystemSummary{System: sys, GmeanCycles: metrics.Gmean(a.cycles), WallNS: a.wall}
		if a.wall > 0 {
			s.ReqPerSec = float64(len(a.cycles)) / (float64(a.wall) / 1e9)
		}
		if a.l1Acc > 0 {
			s.L1MissRate = float64(a.l1Miss) / float64(a.l1Acc)
			s.MeanAMAT = a.amatSum / float64(a.cached)
			if a.l2Acc > 0 {
				s.L2MissRate = float64(a.l2Miss) / float64(a.l2Acc)
			}
		}
		out = append(out, s)
	}
	return out
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
