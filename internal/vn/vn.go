// Package vn models the sequential von Neumann baseline (Sec. II-C).
//
// A CPU's token synchronization is total program order: one dynamic
// instruction per cycle, so execution time equals the dynamic instruction
// count and IPC is identically 1. Live state is the number of live variable
// bindings plus call depth — the registers/stack slots a sequential machine
// keeps — which stays tiny because the depth-first traversal of the dynamic
// dataflow graph never has more than one loop iteration in flight.
//
// The model runs on the reference interpreter (internal/prog) through its
// CostModel hook, so the values it computes are by construction the golden
// semantics the dataflow machines are checked against.
package vn

import (
	"repro/internal/cancel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Result reports one run.
type Result struct {
	Completed bool
	Cycles    int64 // == dynamic instructions
	Fired     int64
	Ret       int64
	PeakLive  int64
	MeanLive  float64
	IPCHist   map[int]int64
	Trace     []metrics.TracePoint
	Stats     prog.Stats
	// Note records the machine configuration that produced the run.
	Note string
}

// IPC returns mean instructions per cycle (always 1 for vN).
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.Cycles)
}

// Config parameterizes a run.
type Config struct {
	Args     []int64
	MaxSteps int64
	// Memory, when non-nil, routes every load and store through a memory
	// timing model: a fixed load latency (mem.LoadLatency) or the
	// hierarchy of internal/cache. Every cycle of an access beyond the
	// first stalls the machine. Nil keeps single-cycle memory.
	Memory mem.AccessModel
	// TracePoints caps the live-state trace length (0 =
	// metrics.DefaultTracePoints, negative = off).
	TracePoints int
	// Tracer, when non-nil, receives one KindFire event per dynamic
	// instruction (Val = instruction class) and a KindBoundary event per
	// scope boundary (Val = live bindings). There is no graph, so events
	// carry trace.NoNode.
	Tracer *trace.Recorder
	// Stop, when non-nil, is polled at every dynamic instruction; once
	// stopped the run returns cancel.ErrStopped promptly. Nil changes
	// nothing.
	Stop *cancel.Flag
}

// model implements prog.CostModel with vN cost semantics.
type model struct {
	instrs int64
	stalls int64

	// memory is the attached timing model; pendingMem holds the latency
	// of the access announced via Mem, consumed by the next Instr call.
	memory     mem.AccessModel
	pendingMem int64

	// live-state integration: live values change only at boundaries, so
	// integrate live*dt between them.
	lastInstrs int64
	lastLive   int64
	sumLive    int64
	peakLive   int64

	liveTrace metrics.LiveTrace

	rec *trace.Recorder
}

//tyr:hotpath
func (m *model) Instr(class prog.InstrClass, _ int64) int64 {
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.instrs, Kind: trace.KindFire,
			Node: trace.NoNode, Src: trace.NoNode, Val: int64(class)})
	}
	m.instrs++
	if m.memory != nil {
		// A sequential machine cannot hide memory latency: every cycle
		// beyond the first stalls the pipeline.
		if m.pendingMem > 1 {
			m.stalls += m.pendingMem - 1
		}
		m.pendingMem = 0
	}
	return 0
}

// Mem (prog.MemModel) routes the upcoming load/store through the attached
// model; the resulting latency is charged by the following Instr call.
//
//tyr:hotpath
func (m *model) Mem(kind mem.AccessKind, region int, addr int64) {
	if m.memory != nil {
		m.pendingMem = m.memory.Access(m.instrs+m.stalls, kind, region, addr)
	}
}

//tyr:hotpath
func (m *model) Boundary(_ prog.BoundaryKind, live int) {
	dt := m.instrs - m.lastInstrs
	m.sumLive += m.lastLive * dt
	m.lastInstrs = m.instrs
	m.lastLive = int64(live)
	if m.lastLive > m.peakLive {
		m.peakLive = m.lastLive
	}
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.instrs, Kind: trace.KindBoundary,
			Node: trace.NoNode, Src: trace.NoNode, Val: m.lastLive})
	}
	m.liveTrace.Boundary(m.instrs, m.lastLive)
}

// Run executes the program under the vN cost model.
func Run(p *prog.Program, im *mem.Image, cfg Config) (Result, error) {
	m := &model{liveTrace: metrics.NewLiveTrace(cfg.TracePoints), memory: cfg.Memory, rec: cfg.Tracer}
	res, err := prog.Run(p, im, prog.RunConfig{Args: cfg.Args, MaxSteps: cfg.MaxSteps, Model: m, Stop: cfg.Stop})
	if err != nil {
		return Result{}, err
	}
	// Close the live integration at program end.
	m.Boundary(prog.BoundaryCallExit, 0)

	cycles := m.instrs + m.stalls
	out := Result{
		Completed: true,
		Cycles:    cycles,
		Fired:     m.instrs,
		Ret:       res.Ret,
		PeakLive:  m.peakLive,
		Trace:     m.liveTrace.CloseBoundaries(cycles, m.lastLive),
		Stats:     res.Stats,
		IPCHist:   map[int]int64{1: m.instrs},
		Note:      "sequential, 1 instr/cycle",
	}
	if m.stalls > 0 {
		out.IPCHist[0] = m.stalls
	}
	if m.instrs > 0 {
		out.MeanLive = float64(m.sumLive) / float64(m.instrs)
	}
	return out, nil
}
