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
	"repro/internal/compile"
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
	// Shards splits the tagged engines (tyr/unordered) across worker
	// goroutines with results bit-identical to the single-goroutine run
	// (core.Config.Shards); runs with a Tracer, Sanitize, or Cache
	// attached are forced serial by the engine. The other systems are
	// serial by construction (vN and seqdf interpret one instruction
	// stream; ordered's FIFO discipline is the serialization under
	// study) and ignore the setting. 0 or 1 = sequential.
	Shards int
	// Batch is the lockstep batch width B for callers that group several
	// runs of one compiled graph into a single worker (RunBatch, the
	// serving coalescer). Run itself ignores it — a single run has
	// nothing to batch with — but the field carries the knob through the
	// one config surface (api exec.batch → here). 0 or 1 = no batching.
	Batch int
	// Compiler, when non-nil, supplies compiled graphs in place of the
	// default compile calls — the serving layer injects its LRU cache of
	// compiled graphs here. Implementations must return graphs that are
	// safe to share across concurrent runs (the engines never mutate them).
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
// (nil) source compiles fresh per run; the serving layer substitutes a
// cache keyed by program identity.
type GraphSource interface {
	// Tagged returns the tagged-lowering graph for app (tyr/unordered).
	Tagged(app *apps.App) (*dfg.Graph, error)
	// Ordered returns the ordered-lowering graph for app.
	Ordered(app *apps.App) (*dfg.Graph, error)
}

// compileSource is the default GraphSource: a fresh compile per call.
type compileSource struct{}

func (compileSource) Tagged(app *apps.App) (*dfg.Graph, error) {
	return compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
}

func (compileSource) Ordered(app *apps.App) (*dfg.Graph, error) {
	return compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
}

func (c SysConfig) withDefaults() SysConfig {
	if c.IssueWidth == 0 {
		c.IssueWidth = 128
	}
	if c.Tags == 0 {
		c.Tags = 64
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4
	}
	return c
}

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

func runSystem(app *apps.App, system string, cfg SysConfig) (metrics.RunStats, error) {
	cfg = cfg.withDefaults()
	rs := metrics.RunStats{System: system, App: app.Name}
	graphs := GraphSource(compileSource{})
	if cfg.Compiler != nil {
		graphs = cfg.Compiler
	}

	switch system {
	case SysVN:
		im := app.NewImage()
		if cfg.imageSink != nil {
			*cfg.imageSink = im
		}
		if cfg.Tracer != nil {
			cfg.Tracer.SetMeta(trace.Meta{Program: app.Name, System: system})
		}
		hier, err := newHierarchy(cfg, im)
		if err != nil {
			return rs, err
		}
		vcfg := vn.Config{Args: app.Args, MaxSteps: cfg.MaxCycles, LoadLatency: cfg.LoadLatency, TracePoints: cfg.TracePoints, Tracer: cfg.Tracer, Stop: cfg.Stop}
		if hier != nil {
			vcfg.Memory = hier
		}
		res, err := vn.Run(app.Prog, im, vcfg)
		if err != nil {
			return rs, err
		}
		if !cfg.SkipCheck {
			if err := app.Check(im, res.Ret); err != nil {
				return rs, fmt.Errorf("harness: %s on %s produced wrong output: %w", app.Name, system, err)
			}
		}
		rs.Completed = true
		rs.Cycles, rs.Fired = res.Cycles, res.Fired
		rs.PeakLive, rs.MeanLive = res.PeakLive, res.MeanLive
		rs.IPCHist = res.IPCHist
		rs.Trace = convertTrace(res.Trace)
		rs.Note = res.Note
		attachCache(&rs, hier)
		return rs, nil

	case SysSeqDF:
		im := app.NewImage()
		if cfg.imageSink != nil {
			*cfg.imageSink = im
		}
		if cfg.Tracer != nil {
			cfg.Tracer.SetMeta(trace.Meta{Program: app.Name, System: system})
		}
		hier, err := newHierarchy(cfg, im)
		if err != nil {
			return rs, err
		}
		scfg := seqdf.Config{
			Args: app.Args, MaxSteps: cfg.MaxCycles, IssueWidth: cfg.IssueWidth,
			LoadLatency: int64(cfg.LoadLatency), TracePoints: cfg.TracePoints,
			Tracer: cfg.Tracer, Stop: cfg.Stop,
		}
		if hier != nil {
			scfg.Memory = hier
		}
		res, err := seqdf.Run(app.Prog, im, scfg)
		if err != nil {
			return rs, err
		}
		if !cfg.SkipCheck {
			if err := app.Check(im, res.Ret); err != nil {
				return rs, fmt.Errorf("harness: %s on %s produced wrong output: %w", app.Name, system, err)
			}
		}
		rs.Completed = true
		rs.Cycles, rs.Fired = res.Cycles, res.Fired
		rs.PeakLive, rs.MeanLive = res.PeakLive, res.MeanLive
		rs.IPCHist = res.IPCHist
		rs.Trace = convertTrace(res.Trace)
		rs.Note = res.Note
		attachCache(&rs, hier)
		return rs, nil

	case SysOrdered:
		g, err := graphs.Ordered(app)
		if err != nil {
			return rs, err
		}
		im := app.NewImage()
		if cfg.imageSink != nil {
			*cfg.imageSink = im
		}
		if cfg.Tracer != nil {
			cfg.Tracer.SetMeta(trace.MetaFromGraph(app.Name, system, g))
		}
		hier, err := newHierarchy(cfg, im)
		if err != nil {
			return rs, err
		}
		ocfg := orderedConfigFor(cfg)
		if hier != nil {
			ocfg.Memory = hier
		}
		res, err := ordered.Run(g, im, ocfg)
		if err != nil {
			return rs, err
		}
		if !cfg.SkipCheck {
			if err := app.Check(im, res.ResultValue); err != nil {
				return rs, fmt.Errorf("harness: %s on %s produced wrong output: %w", app.Name, system, err)
			}
		}
		fillOrderedStats(&rs, res)
		attachCache(&rs, hier)
		return rs, nil

	case SysUnordered, SysTyr:
		g, err := graphs.Tagged(app)
		if err != nil {
			return rs, err
		}
		ecfg := coreConfigFor(system, cfg)
		im := app.NewImage()
		if cfg.imageSink != nil {
			*cfg.imageSink = im
		}
		if cfg.Tracer != nil {
			cfg.Tracer.SetMeta(trace.MetaFromGraph(app.Name, system, g))
		}
		hier, err := newHierarchy(cfg, im)
		if err != nil {
			return rs, err
		}
		if hier != nil {
			ecfg.Memory = hier
		}
		res, err := core.Run(g, im, ecfg)
		if err != nil {
			return rs, err
		}
		fillCoreStats(&rs, res)
		attachCache(&rs, hier)
		if res.Deadlocked {
			return rs, nil
		}
		if !cfg.SkipCheck {
			if err := app.Check(im, res.ResultValue); err != nil {
				return rs, fmt.Errorf("harness: %s on %s produced wrong output: %w", app.Name, system, err)
			}
		}
		return rs, nil
	}
	return rs, fmt.Errorf("harness: unknown system %q", system)
}

// coreConfigFor translates the harness config into the tagged engine's
// config for a system (tyr or unordered), minus the per-run memory
// hierarchy (which is built against each run's own image).
func coreConfigFor(system string, cfg SysConfig) core.Config {
	ecfg := core.Config{
		IssueWidth:  cfg.IssueWidth,
		LoadLatency: cfg.LoadLatency,
		MaxCycles:   cfg.MaxCycles,
		TracePoints: cfg.TracePoints,
		Sanitize:    cfg.Sanitize,
		Tracer:      cfg.Tracer,
		Stop:        cfg.Stop,
		Shards:      cfg.Shards,
		BatchSize:   cfg.Batch,
	}
	if system == SysTyr {
		ecfg.Policy = core.PolicyTyr
		ecfg.TagsPerBlock = cfg.Tags
		ecfg.BlockTags = cfg.BlockTags
	} else if cfg.GlobalTags > 0 {
		ecfg.Policy = core.PolicyGlobalBounded
		ecfg.GlobalTags = cfg.GlobalTags
	} else {
		ecfg.Policy = core.PolicyGlobalUnlimited
	}
	return ecfg
}

// orderedConfigFor translates the harness config into the FIFO machine's
// config, minus the per-run memory hierarchy.
func orderedConfigFor(cfg SysConfig) ordered.Config {
	return ordered.Config{
		IssueWidth: cfg.IssueWidth, QueueCap: cfg.QueueCap,
		LoadLatency: cfg.LoadLatency, MaxCycles: cfg.MaxCycles,
		TracePoints: cfg.TracePoints,
		Tracer:      cfg.Tracer, Stop: cfg.Stop,
	}
}

// fillCoreStats copies a tagged-engine result into the uniform record,
// including the deadlock post-mortem when the run deadlocked.
func fillCoreStats(rs *metrics.RunStats, res core.Result) {
	rs.Completed = res.Completed
	rs.Deadlocked = res.Deadlocked
	rs.Cycles, rs.Fired = res.Cycles, res.Fired
	rs.PeakLive, rs.MeanLive = res.PeakLive, res.MeanLive
	rs.IPCHist = res.IPCHist
	rs.Trace = convertCoreTrace(res.Trace)
	rs.PeakTags = res.PeakTags
	rs.Note = res.Note
	if res.Deadlocked {
		rs.Note = res.Note + "; " + res.Deadlock.String()
		rs.Deadlock = convertDeadlock(res.Deadlock)
	}
}

// fillOrderedStats copies a FIFO-machine result into the uniform record.
func fillOrderedStats(rs *metrics.RunStats, res ordered.Result) {
	rs.Completed = res.Completed
	rs.Cycles, rs.Fired = res.Cycles, res.Fired
	rs.PeakLive, rs.MeanLive = res.PeakLive, res.MeanLive
	rs.IPCHist = res.IPCHist
	rs.Trace = convertTrace(res.Trace)
	rs.Note = res.Note
}

// convertTrace adapts any engine's state-point slice to the uniform trace
// record. All engines share the same point shape.
func convertTrace[T ~struct {
	Cycle int64
	Live  int64
}](pts []T) []metrics.TracePoint {
	out := make([]metrics.TracePoint, len(pts))
	for i, p := range pts {
		s := struct {
			Cycle int64
			Live  int64
		}(p)
		out[i] = metrics.TracePoint{Cycle: s.Cycle, Live: s.Live}
	}
	return out
}

func convertCoreTrace(pts []core.StatePoint) []metrics.TracePoint {
	return convertTrace(pts)
}

// convertDeadlock adapts the engine's deadlock post-mortem to the telemetry
// record.
func convertDeadlock(d *core.DeadlockInfo) *metrics.DeadlockStats {
	if d == nil {
		return nil
	}
	out := &metrics.DeadlockStats{
		Cycle:         d.Cycle,
		LiveTokens:    d.LiveTokens,
		StarvedAllocs: len(d.PendingAllocs),
		Summary:       d.String(),
	}
	for _, sp := range d.Spaces {
		out.Spaces = append(out.Spaces, metrics.DeadlockSpace{
			Block: sp.Block, Kind: sp.Kind, Tags: sp.Tags,
			InUse: sp.InUse, Starved: sp.Starved,
		})
	}
	return out
}
