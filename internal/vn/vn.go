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

// StatePoint is one sample of the live-value trace.
type StatePoint struct {
	Cycle int64
	Live  int64
}

// Result reports one run.
type Result struct {
	Completed bool
	Cycles    int64 // == dynamic instructions
	Fired     int64
	Ret       int64
	PeakLive  int64
	MeanLive  float64
	IPCHist   map[int]int64
	Trace     []StatePoint
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
	// LoadLatency adds stall cycles per load (a sequential machine
	// cannot hide memory latency; 0 or 1 = single-cycle memory).
	LoadLatency int
	// Memory, when non-nil, routes every load and store through a
	// memory-hierarchy timing model (see internal/cache); its per-access
	// latency supersedes LoadLatency. Nil keeps the ideal flat memory.
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
	instrs  int64
	stalls  int64
	loadLat int64

	// memory is the attached hierarchy model; pendingMem holds the latency
	// of the access announced via Mem, consumed by the next Instr call.
	memory     mem.AccessModel
	pendingMem int64

	// live-state integration: live values change only at boundaries, so
	// integrate live*dt between them.
	lastInstrs int64
	lastLive   int64
	sumLive    int64
	peakLive   int64

	tracePts    []StatePoint
	tracePoints int
	traceStride int64
	winMax      int64
	winMaxCycle int64
	winValid    bool

	rec *trace.Recorder
}

//tyr:hotpath
func (m *model) Instr(class prog.InstrClass, _ ...int64) int64 {
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
	} else if class == prog.ClassLoad && m.loadLat > 1 {
		m.stalls += m.loadLat - 1
	}
	return 0
}

// Mem (prog.MemModel) routes the upcoming load/store through the attached
// hierarchy; the resulting latency is charged by the following Instr call.
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
	m.sample()
}

// sample maintains the live-state trace with max-preserving decimation:
// each stride window contributes its peak-live sample.
//
//tyr:hotpath
func (m *model) sample() {
	if m.tracePoints <= 0 {
		return
	}
	if !m.winValid || m.lastLive > m.winMax {
		m.winMax, m.winMaxCycle = m.lastLive, m.instrs
		m.winValid = true
	}
	if n := len(m.tracePts); n > 0 && m.instrs-m.tracePts[n-1].Cycle < m.traceStride {
		return
	}
	m.emitWindow()
}

// emitWindow appends the pending window's peak. Boundaries may repeat the
// same instruction count, so a window landing on the previous point's
// cycle merges into it instead of breaking monotonicity.
//
//tyr:hotpath
func (m *model) emitWindow() {
	if !m.winValid {
		return
	}
	m.winValid = false
	if n := len(m.tracePts); n > 0 && m.winMaxCycle <= m.tracePts[n-1].Cycle {
		if m.winMax > m.tracePts[n-1].Live {
			m.tracePts[n-1].Live = m.winMax
		}
		return
	}
	m.tracePts = append(m.tracePts, StatePoint{Cycle: m.winMaxCycle, Live: m.winMax})
	if len(m.tracePts) >= m.tracePoints {
		m.tracePts = decimatePoints(m.tracePts)
		m.traceStride *= 2
	}
}

// flush closes the trace at end of run and re-imposes the cap.
func (m *model) flush(end int64) {
	if m.tracePoints <= 0 {
		return
	}
	m.emitWindow()
	if n := len(m.tracePts); n == 0 || m.tracePts[n-1].Cycle < end {
		m.tracePts = append(m.tracePts, StatePoint{Cycle: end, Live: m.lastLive})
	}
	for len(m.tracePts) > m.tracePoints && len(m.tracePts) >= 3 {
		m.tracePts = decimatePoints(m.tracePts)
		m.traceStride *= 2
	}
}

// decimatePoints halves a trace by merging adjacent pairs, keeping each
// pair's higher-live point. The final point is never merged away.
func decimatePoints(pts []StatePoint) []StatePoint {
	if len(pts) < 3 {
		return pts
	}
	last := pts[len(pts)-1]
	body := pts[:len(pts)-1]
	kept := pts[:0]
	for i := 0; i < len(body); i += 2 {
		p := body[i]
		if i+1 < len(body) && body[i+1].Live > p.Live {
			p = body[i+1]
		}
		kept = append(kept, p)
	}
	return append(kept, last)
}

// Run executes the program under the vN cost model.
func Run(p *prog.Program, im *mem.Image, cfg Config) (Result, error) {
	m := &model{tracePoints: cfg.TracePoints, traceStride: 1, loadLat: int64(cfg.LoadLatency), memory: cfg.Memory, rec: cfg.Tracer}
	if m.tracePoints == 0 {
		m.tracePoints = metrics.DefaultTracePoints
	}
	res, err := prog.Run(p, im, prog.RunConfig{Args: cfg.Args, MaxSteps: cfg.MaxSteps, Model: m, Stop: cfg.Stop})
	if err != nil {
		return Result{}, err
	}
	// Close the live integration at program end.
	m.Boundary(prog.BoundaryCallExit, 0)

	cycles := m.instrs + m.stalls
	m.flush(cycles)
	out := Result{
		Completed: true,
		Cycles:    cycles,
		Fired:     m.instrs,
		Ret:       res.Ret,
		PeakLive:  m.peakLive,
		Trace:     m.tracePts,
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
