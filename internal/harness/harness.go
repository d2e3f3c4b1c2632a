// Package harness regenerates every table and figure of the paper's
// evaluation (Sec. VII) on the simulated architectures. Each experiment
// returns structured data (asserted by the claims tests) plus a rendered
// text report, and every run's outputs are validated against the
// workload's native reference before any number is reported.
//
// DESIGN.md §4 maps each experiment to the paper artifact it reproduces.
package harness

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/ordered"
	"repro/internal/seqdf"
	"repro/internal/trace"
	"repro/internal/vn"
)

// System names, in the paper's presentation order.
const (
	SysVN        = "vN"
	SysSeqDF     = "seqdf"
	SysOrdered   = "ordered"
	SysUnordered = "unordered"
	SysTyr       = "tyr"
)

// Systems lists all five architectures in presentation order.
var Systems = []string{SysVN, SysSeqDF, SysOrdered, SysUnordered, SysTyr}

// The tag schemes the abl-tags ablation runs besides tyr and unordered:
// local pools without TYR's readiness protocol, and TTDA-style k-bounding
// of leaf loops. Only experiments name them; they are not in Systems.
const (
	sysLocalNoGate = "local-nogate"
	sysKBoundLeaf  = "kbound-leaf"
)

// SysConfig parameterizes a single run of one system.
type SysConfig struct {
	IssueWidth int // default 128 (paper)
	Tags       int // TYR tags per block, default 64 (paper)
	BlockTags  map[string]int
	GlobalTags int // >0 runs "unordered" with a bounded global pool
	QueueCap   int // ordered dataflow FIFO depth, default 4 (paper)
	// LoadLatency models multi-cycle memory on every machine (0 or 1 =
	// the paper's single-cycle memory).
	LoadLatency int
	// Cache, when non-nil, routes every load and store through a fresh
	// memory hierarchy built from this config (internal/cache), and the
	// run's cache counters land in RunStats.Cache. Nil keeps the ideal
	// flat memory, bit-identical to the pre-cache behavior.
	Cache *cache.Config
	// TracePoints caps state traces (0 = metrics.DefaultTracePoints,
	// negative = no trace).
	TracePoints int
	// SkipCheck disables output validation (only for deadlock demos,
	// where there is no output to validate).
	SkipCheck bool
	// Sanitize runs the tagged engines (tyr/unordered) with the runtime
	// sanitizer: tag double-free, pool-leak, and orphaned-token checks
	// reported as structured diagnostics (core.SanitizeError).
	Sanitize bool
	// Tracer, when non-nil, receives the run's event stream; the harness
	// stamps it with program/system/graph metadata before the run starts.
	Tracer *trace.Recorder
	// Telemetry, when non-nil, collects the RunStats of every run for
	// machine-readable export (WriteTelemetry).
	Telemetry *Telemetry
	// Stop, when non-nil, is handed to the engine and polled at every
	// cycle boundary (dynamic instruction, for the interpreter-driven
	// baselines); once armed the run returns cancel.ErrStopped within one
	// boundary. Nil changes nothing.
	Stop *cancel.Flag
	// MaxCycles overrides the engine's runaway budget: simulated cycles
	// for the graph machines, dynamic instructions for the interpreter-
	// driven baselines (vN, seqdf). Zero keeps the engine default.
	MaxCycles int64
	// Compiler, when non-nil, supplies compiled graphs in place of the
	// app's own (App.Tagged, App.Ordered): tyrd wraps those in a compile
	// span, tyrsim -graph substitutes a loaded graph. Implementations must
	// return graphs that are safe to share across concurrent runs (the
	// engines never mutate them).
	Compiler GraphSource
	// TraceID, when non-empty, is stamped on the run record so service
	// telemetry can be joined back to the request that produced it.
	TraceID string

	// imageSink, when non-nil, receives the run's final memory image
	// (test-only plumbing: the cache-equivalence guard compares images
	// word for word across configurations).
	imageSink **mem.Image
}

// GraphSource supplies compiled dataflow graphs for a workload. The default
// (nil) source is the app's own graph, compiled once per App; the serving
// layer wraps that lookup in a span.
type GraphSource interface {
	// Tagged returns the tagged-lowering graph for app (tyr/unordered).
	Tagged(app *apps.App) (*dfg.Graph, error)
	// Ordered returns the ordered-lowering graph for app.
	Ordered(app *apps.App) (*dfg.Graph, error)
}

// appGraphs is the default GraphSource: each app's own graphs.
type appGraphs struct{}

func (appGraphs) Tagged(app *apps.App) (*dfg.Graph, error)  { return app.Tagged() }
func (appGraphs) Ordered(app *apps.App) (*dfg.Graph, error) { return app.Ordered() }

// Run executes one workload on one system and converts the result to the
// uniform record. Outputs are validated against the native reference
// unless the run deadlocked (bounded unordered) or SkipCheck is set.
// Wall-clock time is stamped on every record, and completed runs are
// appended to cfg.Telemetry when one is attached.
func Run(app *apps.App, system string, cfg SysConfig) (metrics.RunStats, error) {
	start := time.Now()
	rs, err := runSystem(app, system, cfg)
	rs.WallNS = time.Since(start).Nanoseconds()
	rs.TraceID = cfg.TraceID
	if err == nil {
		cfg.Telemetry.Record(rs)
	}
	return rs, err
}

// newHierarchy builds the per-run cache model when one is configured,
// stamping the run's tracer into it so cache events join the event stream.
// Returns nil (no model) when SysConfig.Cache is nil.
func newHierarchy(cfg SysConfig, im *mem.Image) (*cache.Hierarchy, error) {
	if cfg.Cache == nil {
		return nil, nil
	}
	cc := *cfg.Cache
	if cc.Tracer == nil {
		cc.Tracer = cfg.Tracer
	}
	return cache.New(cc, im)
}

// attachCache snapshots the hierarchy's counters into the run record.
func attachCache(rs *metrics.RunStats, h *cache.Hierarchy) {
	if h == nil {
		return
	}
	cs := h.Stats()
	rs.Cache = &cs
}

// runSystem does each step every system shares once (graph lookup, image,
// tracer metadata, cache model, cache counters, output check); its switch
// only configures and calls the engine, then copies the result.
func runSystem(app *apps.App, system string, cfg SysConfig) (metrics.RunStats, error) {
	rs := metrics.RunStats{System: system, App: app.Name}
	graphs := GraphSource(appGraphs{})
	if cfg.Compiler != nil {
		graphs = cfg.Compiler
	}
	var g *dfg.Graph
	var err error
	switch system {
	case SysVN, SysSeqDF:
	case SysOrdered:
		g, err = graphs.Ordered(app)
	case SysUnordered, SysTyr, sysLocalNoGate, sysKBoundLeaf:
		g, err = graphs.Tagged(app)
	default:
		return rs, fmt.Errorf("harness: unknown system %q", system)
	}
	if err != nil {
		return rs, err
	}
	im := app.NewImage()
	if cfg.imageSink != nil {
		*cfg.imageSink = im
	}
	if cfg.Tracer != nil {
		meta := trace.Meta{Program: app.Name, System: system}
		if g != nil {
			meta = trace.MetaFromGraph(app.Name, system, g)
		}
		cfg.Tracer.SetMeta(meta)
	}
	hier, err := newHierarchy(cfg, im)
	if err != nil {
		return rs, err
	}
	// A nil *cache.Hierarchy must stay a nil interface: the engines test
	// Memory against nil to pick the flat-memory path.
	var memory mem.AccessModel
	if hier != nil {
		memory = hier
	}

	var ret int64
	switch system {
	case SysVN:
		res, err := vn.Run(app.Prog, im, vn.Config{
			Args: app.Args, MaxSteps: cfg.MaxCycles, LoadLatency: cfg.LoadLatency,
			Memory: memory, TracePoints: cfg.TracePoints, Tracer: cfg.Tracer, Stop: cfg.Stop,
		})
		if err != nil {
			return rs, err
		}
		ret = res.Ret
		rs.Completed, rs.Cycles, rs.Fired, rs.Note = res.Completed, res.Cycles, res.Fired, res.Note
		rs.PeakLive, rs.MeanLive, rs.IPCHist, rs.Trace = res.PeakLive, res.MeanLive, res.IPCHist, res.Trace
	case SysSeqDF:
		res, err := seqdf.Run(app.Prog, im, seqdf.Config{
			Args: app.Args, MaxSteps: cfg.MaxCycles, IssueWidth: cfg.IssueWidth,
			LoadLatency: int64(cfg.LoadLatency), Memory: memory, TracePoints: cfg.TracePoints,
			Tracer: cfg.Tracer, Stop: cfg.Stop,
		})
		if err != nil {
			return rs, err
		}
		ret = res.Ret
		rs.Completed, rs.Cycles, rs.Fired, rs.Note = res.Completed, res.Cycles, res.Fired, res.Note
		rs.PeakLive, rs.MeanLive, rs.IPCHist, rs.Trace = res.PeakLive, res.MeanLive, res.IPCHist, res.Trace
	case SysOrdered:
		res, err := ordered.Run(g, im, ordered.Config{
			IssueWidth: cfg.IssueWidth, QueueCap: cfg.QueueCap, LoadLatency: cfg.LoadLatency,
			Memory: memory, MaxCycles: cfg.MaxCycles, TracePoints: cfg.TracePoints,
			Tracer: cfg.Tracer, Stop: cfg.Stop,
		})
		if err != nil {
			return rs, err
		}
		ret = res.ResultValue
		rs.Completed, rs.Cycles, rs.Fired, rs.Note = res.Completed, res.Cycles, res.Fired, res.Note
		rs.PeakLive, rs.MeanLive, rs.IPCHist, rs.Trace = res.PeakLive, res.MeanLive, res.IPCHist, res.Trace
	default: // the tagged machine: SysUnordered, SysTyr and the ablation schemes
		ecfg := coreConfigFor(system, cfg)
		ecfg.Memory = memory
		res, err := core.Run(g, im, ecfg)
		if err != nil {
			return rs, err
		}
		ret = res.ResultValue
		rs.Completed, rs.Cycles, rs.Fired, rs.Note = res.Completed, res.Cycles, res.Fired, res.Note
		rs.PeakLive, rs.MeanLive, rs.IPCHist, rs.Trace = res.PeakLive, res.MeanLive, res.IPCHist, res.Trace
		rs.PeakTags, rs.Deadlocked, rs.Spaces = res.PeakTags, res.Deadlocked, res.Spaces
		rs.PeakStorePerInstr, rs.FrameTokens, rs.CrossTokens = res.PeakStorePerInstr, res.FrameTokens, res.CrossTokens
		if res.Deadlocked {
			rs.Note += "; " + res.Deadlock.String()
			rs.Deadlock = convertDeadlock(res.Deadlock)
		}
	}
	attachCache(&rs, hier)
	if rs.Deadlocked || cfg.SkipCheck {
		return rs, nil
	}
	if err := app.Check(im, ret); err != nil {
		return rs, fmt.Errorf("harness: %s on %s produced wrong output: %w", app.Name, system, err)
	}
	return rs, nil
}

// coreConfigFor translates the harness config into the tagged engine's
// config for a system (tyr, unordered or an ablation scheme), minus the
// per-run memory hierarchy (which is built against each run's own image).
func coreConfigFor(system string, cfg SysConfig) core.Config {
	ecfg := core.Config{
		IssueWidth:  cfg.IssueWidth,
		LoadLatency: cfg.LoadLatency,
		MaxCycles:   cfg.MaxCycles,
		TracePoints: cfg.TracePoints,
		Sanitize:    cfg.Sanitize,
		Tracer:      cfg.Tracer,
		Stop:        cfg.Stop,
	}
	switch system {
	case SysTyr:
		ecfg.Policy = core.PolicyTyr
	case sysLocalNoGate:
		ecfg.Policy = core.PolicyLocalNoGate
	case sysKBoundLeaf:
		ecfg.Policy = core.PolicyKBound
	default: // SysUnordered
		if cfg.GlobalTags > 0 {
			ecfg.Policy = core.PolicyGlobalBounded
			ecfg.GlobalTags = cfg.GlobalTags
		} else {
			ecfg.Policy = core.PolicyGlobalUnlimited
		}
		return ecfg
	}
	// The local-pool policies size each block's pool.
	ecfg.TagsPerBlock = cfg.Tags
	ecfg.BlockTags = cfg.BlockTags
	return ecfg
}

// convertDeadlock adapts the engine's deadlock post-mortem to the telemetry
// record.
func convertDeadlock(d *core.DeadlockInfo) *metrics.DeadlockStats {
	if d == nil {
		return nil
	}
	return &metrics.DeadlockStats{
		Cycle:         d.Cycle,
		LiveTokens:    d.LiveTokens,
		StarvedAllocs: len(d.PendingAllocs),
		Spaces:        d.Spaces,
		Summary:       d.String(),
	}
}
