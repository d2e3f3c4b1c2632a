// Package seqdf models the sequential-dataflow baseline (WaveScalar-like;
// Sec. II-C of the paper).
//
// Sequential dataflow executes hyperblocks in the von Neumann block order:
// within the current block the dataflow firing rule extracts instruction-
// level parallelism (bounded by issue width), but entering the next block
// requires advancing the wave number of every live value, and the wave
// number itself depends on the control flow of all earlier blocks — so
// blocks are globally serialized, like a wide out-of-order window that
// cannot cross block boundaries.
//
// The model is trace-driven: it rides the reference interpreter's CostModel
// hook (see DESIGN.md §3/§5 for why this substitution is faithful). For
// each dynamic block (loop iteration or function body segment) it computes
//
//	cycles = max(dependence height, ceil(instructions / issueWidth))
//	       + ceil(liveValues / issueWidth)   // the WaveAdvance overhead
//
// and counts one WaveAdvance instruction per live value at each boundary.
// Live state is the block's peak internal parallelism plus the values
// carried across the boundary.
package seqdf

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/trace"
)

// StatePoint is one sample of the live-state trace.
type StatePoint struct {
	Cycle int64
	Live  int64
}

// Result reports one run.
type Result struct {
	Completed bool
	Cycles    int64
	Fired     int64 // dynamic instructions incl. WaveAdvances
	Waves     int64 // block boundaries crossed
	Ret       int64
	PeakLive  int64
	MeanLive  float64
	IPCHist   map[int]int64
	Trace     []StatePoint
	Stats     prog.Stats
	// Note records the machine configuration that produced the run.
	Note string
}

// IPC returns mean instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.Cycles)
}

// Config parameterizes a run.
type Config struct {
	Args       []int64
	MaxSteps   int64
	IssueWidth int // default 128
	// LoadLatency is the cycles a load takes (sequential dataflow hides
	// it only within the current block's window).
	LoadLatency int64
	// Memory, when non-nil, routes every load and store through a
	// memory-hierarchy timing model (see internal/cache); its per-access
	// latency supersedes LoadLatency. Nil keeps the ideal flat memory.
	Memory mem.AccessModel
	// TracePoints caps the live-state trace length (0 =
	// metrics.DefaultTracePoints, negative = off).
	TracePoints int
	// Tracer, when non-nil, receives one KindFire event per dynamic
	// instruction (Val = instruction class) and a KindBoundary event per
	// hyperblock boundary / wave advance (Val = carried live values).
	// There is no graph, so events carry trace.NoNode.
	Tracer *trace.Recorder
	// Stop, when non-nil, is polled at every dynamic instruction; once
	// stopped the run returns cancel.ErrStopped promptly. Nil changes
	// nothing.
	Stop *cancel.Flag
}

type model struct {
	width   int64
	loadLat int64

	// memory is the attached hierarchy model; pendingMem holds the latency
	// of the access announced via Mem, consumed by the next Instr call.
	memory     mem.AccessModel
	pendingMem int64

	clock    int64 // committed cycles of completed blocks
	n        int64 // instructions in the current block
	maxReady int64 // dependence height (absolute)
	// levels counts instructions per ready cycle within the current
	// block, indexed by r - clock - 1 (every r lands after the committed
	// clock, so the block's dependence levels form a dense prefix). The
	// used prefix is zeroed at each boundary, replacing the seed's
	// per-block map churn.
	levels  []int64
	peakPar int64

	instrs int64 // total, incl. WaveAdvances
	waves  int64

	sumLive  int64
	peakLive int64

	tracePts    []StatePoint
	tracePoints int
	traceStride int64
	winMax      int64
	winMaxCycle int64
	winValid    bool

	ipcHist []int64 // indexed by block IPC, capped at width

	rec *trace.Recorder
}

//tyr:hotpath
func (m *model) Instr(class prog.InstrClass, deps ...int64) int64 {
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.clock, Kind: trace.KindFire,
			Node: trace.NoNode, Src: trace.NoNode, Val: int64(class)})
	}
	r := m.clock
	for _, d := range deps {
		if d > r {
			r = d
		}
	}
	r++
	if m.memory != nil {
		// The block's window hides latency of independent accesses: the
		// extra cycles extend this access's ready time, not the clock.
		if (class == prog.ClassLoad || class == prog.ClassStore) && m.pendingMem > 1 {
			r += m.pendingMem - 1
		}
		m.pendingMem = 0
	} else if class == prog.ClassLoad && m.loadLat > 1 {
		r += m.loadLat - 1
	}
	m.n++
	m.instrs++
	if r > m.maxReady {
		m.maxReady = r
	}
	idx := r - m.clock - 1
	for int64(len(m.levels)) <= idx {
		m.levels = append(m.levels, 0)
	}
	m.levels[idx]++
	if m.levels[idx] > m.peakPar {
		m.peakPar = m.levels[idx]
	}
	return r
}

// Mem (prog.MemModel) routes the upcoming load/store through the attached
// hierarchy; the resulting latency is charged by the following Instr call.
//
//tyr:hotpath
func (m *model) Mem(kind mem.AccessKind, region int, addr int64) {
	if m.memory != nil {
		m.pendingMem = m.memory.Access(m.clock, kind, region, addr)
	}
}

//tyr:hotpath
func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

//tyr:hotpath
func (m *model) Boundary(_ prog.BoundaryKind, live int) {
	finish := m.maxReady
	if wlimit := m.clock + ceilDiv(m.n, m.width); wlimit > finish {
		finish = wlimit
	}
	waveCost := ceilDiv(int64(live), m.width)
	blockCycles := finish - m.clock + waveCost
	blockInstrs := m.n + int64(live) // WaveAdvance per live value
	m.instrs += int64(live)
	m.waves++

	// Live state during the block: internal peak parallelism (each ready
	// instruction holds its operand tokens) plus the carried values that
	// must ride along to stay at the right wave number.
	blockLive := m.peakPar + int64(live)
	if blockLive > m.peakLive {
		m.peakLive = blockLive
	}
	m.sumLive += blockLive * maxI64(blockCycles, 1)

	if blockCycles > 0 {
		ipc := int(blockInstrs / maxI64(blockCycles, 1))
		if ipc > int(m.width) {
			ipc = int(m.width)
		}
		m.ipcHist[ipc] += blockCycles
	}

	// Zero the block's used dependence levels (indices are relative to
	// the clock the block started at).
	used := m.maxReady - m.clock
	if used > int64(len(m.levels)) {
		used = int64(len(m.levels))
	}
	for i := int64(0); i < used; i++ {
		m.levels[i] = 0
	}

	m.clock = finish + waveCost
	m.n = 0
	m.maxReady = m.clock
	m.peakPar = 0
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.clock, Kind: trace.KindBoundary,
			Node: trace.NoNode, Src: trace.NoNode, Val: int64(live)})
	}
	m.sample(blockLive)
}

// sample maintains the live-state trace with max-preserving decimation:
// each stride window contributes its peak-live sample.
//
//tyr:hotpath
func (m *model) sample(live int64) {
	if m.tracePoints <= 0 {
		return
	}
	if !m.winValid || live > m.winMax {
		m.winMax, m.winMaxCycle = live, m.clock
		m.winValid = true
	}
	if n := len(m.tracePts); n > 0 && m.clock-m.tracePts[n-1].Cycle < m.traceStride {
		return
	}
	m.emitWindow()
}

// emitWindow appends the pending window's peak. Empty blocks leave the
// clock unchanged, so a window landing on the previous point's cycle
// merges into it instead of breaking monotonicity.
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
func (m *model) flush() {
	if m.tracePoints <= 0 {
		return
	}
	m.emitWindow()
	if n := len(m.tracePts); n == 0 || m.tracePts[n-1].Cycle < m.clock {
		m.tracePts = append(m.tracePts, StatePoint{Cycle: m.clock, Live: 0})
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

//tyr:hotpath
func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Run executes the program under the sequential-dataflow cost model.
func Run(p *prog.Program, im *mem.Image, cfg Config) (Result, error) {
	width := int64(cfg.IssueWidth)
	if width == 0 {
		width = 128
	}
	m := &model{
		width:       width,
		loadLat:     cfg.LoadLatency,
		memory:      cfg.Memory,
		ipcHist:     make([]int64, width+1),
		tracePoints: cfg.TracePoints,
		traceStride: 1,
		rec:         cfg.Tracer,
	}
	if m.tracePoints == 0 {
		m.tracePoints = metrics.DefaultTracePoints
	}
	res, err := prog.Run(p, im, prog.RunConfig{Args: cfg.Args, MaxSteps: cfg.MaxSteps, Model: m, Stop: cfg.Stop})
	if err != nil {
		return Result{}, err
	}
	m.Boundary(prog.BoundaryCallExit, 0) // flush the final block
	m.flush()

	ipc := make(map[int]int64)
	for k, v := range m.ipcHist {
		if v != 0 {
			ipc[k] = v
		}
	}
	out := Result{
		Completed: true,
		Cycles:    m.clock,
		Fired:     m.instrs,
		Waves:     m.waves,
		Ret:       res.Ret,
		PeakLive:  m.peakLive,
		IPCHist:   ipc,
		Trace:     m.tracePts,
		Stats:     res.Stats,
		Note:      fmt.Sprintf("hyperblock waves, width=%d", width),
	}
	if m.clock > 0 {
		out.MeanLive = float64(m.sumLive) / float64(m.clock)
	}
	return out, nil
}
