// Package core implements the tagged dataflow machine at the heart of the
// reproduction: an idealized, cycle-level simulator that directly executes
// compiled dataflow graphs, following the paper's methodology (Sec. VI).
//
// The same machine executes both TYR and naive unordered dataflow; the
// difference — the paper's entire point — is the tag policy:
//
//   - PolicyTyr gives every concurrent block its own small tag pool.
//     allocate pops immediately while more than reserve+1 tags are free,
//     pops the last usable tag only for a ready context, and external
//     allocates into tail-recursive blocks keep one tag in reserve for the
//     backedge (Sec. IV-A / Lemma 2). This bounds live state and provably
//     avoids deadlock.
//
//   - PolicyGlobalUnlimited allocates unique tags from an inexhaustible
//     global space: classic unordered dataflow (TTDA/Monsoon-style), whose
//     live state explodes with parallelism.
//
//   - PolicyGlobalBounded allocates from a single bounded global pool with
//     no readiness protocol — the naive way to limit parallelism — and
//     deadlocks exactly as the paper's Fig. 11 shows.
//
// Two further policies back the Sec. VIII ablations: PolicyLocalNoGate
// (local pools without the readiness protocol; deadlocks) and PolicyKBound
// (TTDA-style per-invocation k-bounding of leaf loops; completes but does
// not bound outer-loop state).
//
// Timing model: all instructions execute in a single cycle, up to
// Config.IssueWidth firings per cycle (multiple dynamic instances of the
// same static instruction may fire together), and tokens produced in cycle
// c become visible in cycle c+1. Config.LoadLatency optionally models
// multi-cycle memory (results return after the latency, with idle cycles
// burned when nothing else is ready). Live state is the number of
// in-flight tokens, sampled every cycle.
package core

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TagPolicy selects how tags are allocated.
type TagPolicy uint8

const (
	// PolicyTyr: local tag spaces with forward-progress guarantees.
	PolicyTyr TagPolicy = iota
	// PolicyGlobalUnlimited: naive unordered dataflow, unbounded tags.
	PolicyGlobalUnlimited
	// PolicyGlobalBounded: naive unordered dataflow with a finite global
	// pool and no readiness protocol; may deadlock.
	PolicyGlobalBounded
	// PolicyLocalNoGate is an ablation (Sec. VIII): local tag spaces like
	// TYR, but allocate pops whenever a tag is free — no readiness
	// protocol and no tail-recursion reserve. Demonstrates that local
	// pools alone do not guarantee forward progress; may deadlock.
	PolicyLocalNoGate
	// PolicyKBound is an ablation modeling TTDA's k-bounding (Sec. VIII):
	// only *leaf* loops (concurrent blocks that spawn no other blocks)
	// get bounded local pools of k tags; everything else allocates from
	// an unbounded global space. Leaf iterations always terminate, so no
	// readiness protocol is needed there — but outer-loop parallelism
	// remains unbounded, which is exactly why k-bounding does not solve
	// parallelism explosion in general.
	PolicyKBound
)

func (p TagPolicy) String() string {
	switch p {
	case PolicyTyr:
		return "tyr"
	case PolicyGlobalUnlimited:
		return "unordered"
	case PolicyGlobalBounded:
		return "unordered-bounded"
	case PolicyLocalNoGate:
		return "local-nogate"
	case PolicyKBound:
		return "kbound"
	}
	return "?"
}

// Config parameterizes one run of the machine.
type Config struct {
	// IssueWidth is the maximum number of instruction firings per cycle
	// (paper default: 128). Zero selects the default.
	IssueWidth int

	Policy TagPolicy

	// TagsPerBlock sizes every local tag space under PolicyTyr (paper
	// default: 64; two suffice for correctness). Zero selects the default.
	TagsPerBlock int

	// BlockTags overrides TagsPerBlock for individually named blocks —
	// the per-region parallelism knob of Fig. 18. Keys are block names
	// (loop labels / function names).
	BlockTags map[string]int

	// GlobalTags sizes the pool under PolicyGlobalBounded.
	GlobalTags int

	// LoadLatency is the number of cycles a load takes to return its
	// value (0 or 1 = the paper's idealized single-cycle memory). Larger
	// values model unpredictable-latency memory, the setting that
	// motivates tagged dataflow for irregular workloads (Sec. II-C).
	LoadLatency int

	// Memory, when non-nil, is the memory-hierarchy timing model every
	// load and store is routed through (see internal/cache). The returned
	// per-access latency delays the load result / store completion token,
	// superseding the fixed LoadLatency. Nil keeps the ideal flat memory.
	Memory mem.AccessModel

	// MaxCycles aborts runaway simulations. Zero selects a large default.
	MaxCycles int64

	// TracePoints caps the state-over-time trace length (points are
	// decimated by doubling the stride when the cap is hit). Zero selects
	// metrics.DefaultTracePoints; negative disables tracing.
	TracePoints int

	// Sanitize enables the runtime sanitizer: per-token accounting that
	// verifies the free barrier (no live token may still carry a freed
	// tag), tag double-free and pool-leak detection, orphaned-token and
	// orphaned-instance audits at completion, and join fan-in overflow
	// checks, reported as structured Diagnostics via SanitizeError (see
	// sanitize.go).
	Sanitize bool

	// Tracer, when non-nil, receives the run's event stream: token
	// emit/deliver, fires, tag alloc/free/changeTag, allocate park/wake,
	// join arrivals, and memory ops (see internal/trace). Recording is
	// allocation-free; nil costs a single branch per event site.
	Tracer *trace.Recorder

	// Stop, when non-nil, is polled at every cycle boundary; once stopped
	// the run returns cancel.ErrStopped within one cycle. Nil (the
	// default) costs a single nil check per cycle and changes nothing.
	Stop *cancel.Flag
}

const (
	defaultIssueWidth   = 128
	defaultTagsPerBlock = 64
	defaultMaxCycles    = int64(1) << 34
)

func (c Config) withDefaults() Config {
	if c.IssueWidth == 0 {
		c.IssueWidth = defaultIssueWidth
	}
	if c.TagsPerBlock == 0 {
		c.TagsPerBlock = defaultTagsPerBlock
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = defaultMaxCycles
	}
	return c
}

// Describe summarizes the tag policy and pool sizing that shaped a run —
// the provenance string reports surface as RunStats.Note.
func (c Config) Describe() string {
	c = c.withDefaults()
	switch c.Policy {
	case PolicyTyr, PolicyLocalNoGate, PolicyKBound:
		return fmt.Sprintf("policy=%s tags/block=%d", c.Policy, c.TagsPerBlock)
	case PolicyGlobalBounded:
		return fmt.Sprintf("policy=%s global-tags=%d", c.Policy, c.GlobalTags)
	default:
		return fmt.Sprintf("policy=%s tags=unlimited", c.Policy)
	}
}

// PendingAlloc describes an allocate instruction that was starved of tags
// when the machine deadlocked (the red nodes of Fig. 11).
type PendingAlloc struct {
	Node     dfg.NodeID
	Label    string
	Space    string // target block name
	Tag      uint64 // requesting context's tag
	HasReady bool   // the context was ready but no tag was available
}

// DeadlockInfo reports why the machine stopped without completing.
type DeadlockInfo struct {
	Cycle         int64
	LiveTokens    int64
	PendingAllocs []PendingAlloc
	// Spaces names the starved blocks and their tag budgets, one entry
	// per tag space with parked allocates.
	Spaces []metrics.DeadlockSpace
}

func (d *DeadlockInfo) String() string {
	s := fmt.Sprintf("deadlock at cycle %d: %d live tokens, %d starved allocates",
		d.Cycle, d.LiveTokens, len(d.PendingAllocs))
	for _, sp := range d.Spaces {
		budget := "unbounded"
		if sp.Tags > 0 {
			budget = fmt.Sprintf("%d/%d tags in use", sp.InUse, sp.Tags)
		}
		s += fmt.Sprintf("; %s %q starves %d allocate(s) (%s)", sp.Kind, sp.Block, sp.Starved, budget)
	}
	return s
}

// Result reports one run.
type Result struct {
	Completed  bool
	Deadlocked bool
	Deadlock   *DeadlockInfo

	Cycles      int64
	Fired       int64 // dynamic instructions executed
	ResultValue int64 // value observed at the graph's Result node

	PeakLive int64
	MeanLive float64

	// IPCHist maps instructions-fired-per-cycle to the number of cycles
	// at that rate (the CDF of Fig. 13).
	IPCHist map[int]int64

	// Trace is the decimated live-token trace (Figs. 2, 9, 16, 18);
	// TraceStride is the cycle stride between retained points.
	Trace       []metrics.TracePoint
	TraceStride int64

	// PeakTags is the maximum number of tags simultaneously in use across
	// all spaces; Spaces breaks usage down per block.
	PeakTags int
	Spaces   []metrics.SpaceStats

	// KBoundPeakPerInvocation reports, under PolicyKBound, the maximum
	// tags any single loop invocation held at once (always <= the k
	// bound; invocations themselves are unbounded).
	KBoundPeakPerInvocation int

	// PeakStorePerInstr is the maximum number of waiting dynamic
	// instances any single static instruction accumulated — the
	// associative capacity a hardware token store would need (the
	// paper's Problem #2). Under TYR it is bounded by the block's tag
	// count; under unlimited unordered dataflow it grows with input.
	PeakStorePerInstr int

	// FrameTokens and CrossTokens classify delivered tokens by whether
	// they stayed inside a concurrent block (frame-offset indexable in a
	// Monsoon-style explicit token store; Sec. VIII) or crossed a
	// transfer point (requiring cross-context routing).
	FrameTokens int64
	CrossTokens int64

	// Note records the tag policy and pool sizing that produced the run
	// (Config.Describe), so every report line carries its provenance.
	Note string
}

// IPC returns mean instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.Cycles)
}
