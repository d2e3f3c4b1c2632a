// Package ordered implements the ordered-dataflow baseline: a cycle-level
// machine in which instructions communicate through bounded FIFO queues
// (RipTide-style; Sec. II-C of the paper).
//
// Token synchronization is positional: the i-th token on every edge belongs
// to the i-th dynamic instance of the consumer, so no tags exist. Each
// static instruction fires at most once per cycle (same-instruction
// instances are serialized through its queues — the property that costs
// ordered dataflow its cross-iteration parallelism), requires all of its
// input queues non-empty, and stalls on backpressure when any destination
// queue is full. Queue capacity (default 4 tokens, the paper's setting)
// bounds live state.
package ordered

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/cq"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config parameterizes a run.
type Config struct {
	// IssueWidth caps node firings per cycle (paper default: 128).
	IssueWidth int
	// QueueCap is the per-edge FIFO capacity (paper default: 4).
	QueueCap int
	// LoadLatency is the cycles a load takes to return (0 or 1 = the
	// paper's single-cycle memory).
	LoadLatency int
	// Memory, when non-nil, is the memory-hierarchy timing model loads and
	// stores route through (see internal/cache); its per-access latency
	// supersedes LoadLatency. Nil keeps the ideal flat memory.
	Memory mem.AccessModel
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// TracePoints caps the live-state trace (0 =
	// metrics.DefaultTracePoints, negative = off).
	TracePoints int
	// Tracer, when non-nil, receives the run's event stream (fires, token
	// emit/deliver, memory ops). Tags are always zero on this machine:
	// synchronization is positional, which is the point of the baseline.
	Tracer *trace.Recorder
	// Stop, when non-nil, is polled at every cycle boundary; once stopped
	// the run returns cancel.ErrStopped within one cycle.
	Stop *cancel.Flag
}

const (
	defaultIssueWidth = 128
	defaultQueueCap   = 4
	defaultMaxCycles  = int64(1) << 34
)

func (c Config) withDefaults() Config {
	if c.IssueWidth == 0 {
		c.IssueWidth = defaultIssueWidth
	}
	if c.QueueCap == 0 {
		c.QueueCap = defaultQueueCap
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = defaultMaxCycles
	}
	if c.TracePoints == 0 {
		c.TracePoints = metrics.DefaultTracePoints
	}
	return c
}

// StatePoint is one sample of the live-token trace.
type StatePoint struct {
	Cycle int64
	Live  int64
}

// Result reports one run.
type Result struct {
	Completed   bool
	Cycles      int64
	Fired       int64
	ResultValue int64
	PeakLive    int64
	MeanLive    float64
	IPCHist     map[int]int64
	Trace       []StatePoint
	TraceStride int64
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

// fifo is a simple queue of token values.
type fifo struct {
	buf  []int64
	head int
}

//tyr:hotpath
func (f *fifo) len() int { return len(f.buf) - f.head }

//tyr:hotpath
func (f *fifo) peek() int64 { return f.buf[f.head] }

// push appends into the fifo's retained buffer (amortized growth).
//
//tyr:hotpath
func (f *fifo) push(v int64) { f.buf = append(f.buf, v) }

//tyr:hotpath
func (f *fifo) empty() bool { return f.head >= len(f.buf) }

// pop reads the head and occasionally compacts in place (the compaction
// append targets the retained buffer's own backing array).
//
//tyr:hotpath
func (f *fifo) pop() int64 {
	v := f.buf[f.head]
	f.head++
	if f.head > 64 && f.head*2 >= len(f.buf) {
		f.buf = append(f.buf[:0], f.buf[f.head:]...)
		f.head = 0
	}
	return v
}

type push struct {
	to  dfg.Port
	src dfg.NodeID
	val int64
}

// dirtySet is a deduplicating node set: a membership bitmap plus an
// insertion-order list, replacing the seed's map[dfg.NodeID]bool so the
// per-cycle candidate scan touches no hash buckets and clears in O(set)
// without reallocation. Candidate order is restored by sorting the list,
// exactly as the seed sorted the map's keys.
type dirtySet struct {
	marked []bool
	list   []dfg.NodeID
}

//tyr:hotpath
func (s *dirtySet) add(nid dfg.NodeID) {
	if !s.marked[nid] {
		s.marked[nid] = true
		s.list = append(s.list, nid)
	}
}

//tyr:hotpath
func (s *dirtySet) clear() {
	for _, nid := range s.list {
		s.marked[nid] = false
	}
	s.list = s.list[:0]
}

type machine struct {
	g   *dfg.Graph
	im  *mem.Image
	cfg Config

	queues [][]fifo // per node, per input port
	memIdx []int    // graph region -> image region
	staged []push

	// Per-input-port state lives in flat slices indexed by
	// portBase[node]+in (prefix sums over NIn), replacing the seed's
	// map[dfg.Port] tables on the backpressure hot path.
	portBase []int32
	stagedN  []int32 // pushes staged this cycle, for space checks

	// delayed holds load results completing in future cycles; inFlight
	// counts them per destination port so backpressure accounts for
	// memory responses that have not landed yet, and lastDue serializes
	// responses into each queue (positional synchronization means a later
	// cache hit must not overtake an earlier miss on the same edge).
	delayed  cq.Queue[push]
	inFlight []int32
	lastDue  []int64

	// producersOf[node] lists nodes whose outputs feed node's inputs, so
	// freed queue space can re-arm them.
	producersOf [][]dfg.NodeID

	dirty     *dirtySet
	nextDirty *dirtySet

	live     int64
	cycle    int64
	fired    int64
	sumLive  int64
	peakLive int64
	ipcHist  []int64 // indexed by fires per cycle (bounded by IssueWidth)

	vals []int64 // operand scratch for join/forward fires

	tracePts    []StatePoint
	traceStride int64
	winMax      int64
	winMaxCycle int64
	winValid    bool
	rec         *trace.Recorder

	resultSeen bool
	resultVal  int64
}

// pidx flattens a port into its per-port slice index.
//
//tyr:hotpath
func (m *machine) pidx(p dfg.Port) int32 { return m.portBase[p.Node] + int32(p.In) }

// validateConfig rejects configurations the FIFO machine cannot run.
func validateConfig(cfg Config) error {
	if cfg.QueueCap < 2 {
		return fmt.Errorf("ordered: queue capacity must be at least 2 (got %d)", cfg.QueueCap)
	}
	return nil
}

// newMachine builds the read-only per-graph metadata a machine consults
// while firing (the flattened port index, the producers-of wake-up lists,
// and the graph-region → image-region mapping) and the machine's mutable
// state (queues, staged buffers, counters) around it.
func newMachine(g *dfg.Graph, im *mem.Image, cfg Config) (*machine, error) {
	m := &machine{
		g:         g,
		im:        im,
		cfg:       cfg,
		queues:    make([][]fifo, len(g.Nodes)),
		dirty:     &dirtySet{marked: make([]bool, len(g.Nodes))},
		nextDirty: &dirtySet{marked: make([]bool, len(g.Nodes))},
		ipcHist:   make([]int64, cfg.IssueWidth+1),
		rec:       cfg.Tracer,
		portBase:  make([]int32, len(g.Nodes)),
	}
	var nports int32
	maxIn := 0
	for i := range g.Nodes {
		m.portBase[i] = nports
		nports += int32(g.Nodes[i].NIn)
		if g.Nodes[i].NIn > maxIn {
			maxIn = g.Nodes[i].NIn
		}
	}
	m.memIdx = make([]int, len(g.MemNames))
	for i, name := range g.MemNames {
		idx, ok := im.Index(name)
		if !ok {
			return nil, fmt.Errorf("ordered: memory image missing region %q", name)
		}
		m.memIdx[i] = idx
	}
	producers := make([]map[dfg.NodeID]bool, len(g.Nodes))
	for i := range g.Nodes {
		for _, dests := range g.Nodes[i].Outs {
			for _, d := range dests {
				if producers[d.Node] == nil {
					producers[d.Node] = make(map[dfg.NodeID]bool)
				}
				producers[d.Node][g.Nodes[i].ID] = true
			}
		}
	}
	m.producersOf = make([][]dfg.NodeID, len(g.Nodes))
	for i, set := range producers {
		//tyr:nondet-ok -- set flattened here, sorted immediately below
		for pr := range set {
			m.producersOf[i] = append(m.producersOf[i], pr)
		}
		// Sorted so wake-up order (and thus the dirty list) never depends
		// on map iteration.
		sortNodeIDs(m.producersOf[i])
	}
	m.stagedN = make([]int32, nports)
	m.inFlight = make([]int32, nports)
	m.lastDue = make([]int64, nports)
	m.vals = make([]int64, maxIn)
	if cfg.TracePoints > 0 {
		m.traceStride = 1
	}
	for i := range g.Nodes {
		m.queues[i] = make([]fifo, g.Nodes[i].NIn)
	}
	return m, nil
}

// start injects the graph's entry tokens, arming the initial dirty set.
func (m *machine) start() {
	for _, inj := range m.g.Entries {
		m.queues[inj.To.Node][inj.To.In].push(inj.Val)
		m.live++
		m.dirty.add(inj.To.Node)
		if m.rec != nil {
			m.rec.Record(trace.Event{Kind: trace.KindDeliver,
				Node: int32(inj.To.Node), Src: trace.NoNode,
				Block: int32(m.g.Nodes[inj.To.Node].Block),
				Port:  int16(inj.To.In), Val: inj.Val})
		}
	}
}

// Run executes an ordered (ModeOrdered) graph against the memory image.
func Run(g *dfg.Graph, im *mem.Image, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := validateConfig(cfg); err != nil {
		return Result{}, err
	}
	m, err := newMachine(g, im, cfg)
	if err != nil {
		return Result{}, err
	}
	m.start()
	return m.run()
}

// room reports whether every destination of (node, out) can accept a token,
// counting pushes already staged this cycle.
//
//tyr:hotpath
func (m *machine) room(n *dfg.Node, out int) bool {
	for _, d := range n.Outs[out] {
		pi := m.pidx(d)
		if m.queues[d.Node][d.In].len()+int(m.stagedN[pi])+int(m.inFlight[pi]) >= m.cfg.QueueCap {
			return false
		}
	}
	return true
}

// ready reports whether a node can fire this cycle given current queue
// occupancy and staged pushes.
//
//tyr:hotpath
func (m *machine) ready(nid dfg.NodeID) bool {
	n := &m.g.Nodes[nid]
	qs := m.queues[nid]
	switch n.Op {
	case dfg.OpMerge:
		if qs[0].empty() {
			return false
		}
		sel := 1
		if qs[0].peek() != 0 {
			sel = 2
		}
		return !qs[sel].empty() && m.room(n, 0)
	case dfg.OpSteer:
		for in := 0; in < n.NIn; in++ {
			if !n.ConstIn[in].Valid && qs[in].empty() {
				return false
			}
		}
		dec := n.ConstIn[0].V
		if !n.ConstIn[0].Valid {
			dec = qs[0].peek()
		}
		out := dfg.SteerFalseOut
		if dec != 0 {
			out = dfg.SteerTrueOut
		}
		return m.room(n, out)
	default:
		for in := 0; in < n.NIn; in++ {
			if !n.ConstIn[in].Valid && qs[in].empty() {
				return false
			}
		}
		for out := range n.Outs {
			if !m.room(n, out) {
				return false
			}
		}
		return true
	}
}

// input pops the value of an input port (or reads its constant).
//
//tyr:hotpath
func (m *machine) input(n *dfg.Node, in int) int64 {
	if n.ConstIn[in].Valid {
		return n.ConstIn[in].V
	}
	m.live--
	return m.queues[n.ID][in].pop()
}

// emit stages a token on every destination of an output port.
//
//tyr:hotpath
func (m *machine) emit(n *dfg.Node, out int, val int64) {
	for _, d := range n.Outs[out] {
		m.staged = append(m.staged, push{to: d, src: n.ID, val: val})
		m.stagedN[m.pidx(d)]++
		m.live++
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindEmit,
				Node: int32(d.Node), Src: int32(n.ID),
				Block: int32(m.g.Nodes[d.Node].Block),
				Port:  int16(d.In), Val: val})
		}
	}
}

// memLatency resolves one memory access's latency: the attached hierarchy
// model when configured, else the fixed LoadLatency for loads (stores
// complete in a cycle on the ideal flat memory, as in the seed).
//
//tyr:hotpath
func (m *machine) memLatency(kind mem.AccessKind, region int, addr int64) int64 {
	if m.cfg.Memory != nil {
		return m.cfg.Memory.Access(m.cycle, kind, m.memIdx[region], addr)
	}
	if kind == mem.AccessLoad {
		return int64(m.cfg.LoadLatency)
	}
	return 1
}

// emitMem stages a memory response. Single-cycle responses take the normal
// staged path unless earlier responses to the same queue are still in
// flight; anything else is deferred, clamped to arrive no earlier than the
// previous response into each destination queue. The queues synchronize
// positionally, so a later access (say, a cache hit) must never overtake
// an earlier one (a miss) on the same edge — that would hand the i-th
// instance the j-th value. In-flight tokens still occupy queue space for
// backpressure purposes.
//
//tyr:hotpath
func (m *machine) emitMem(n *dfg.Node, out int, val int64, lat int64) {
	if lat <= 1 && !m.memPending(n, out) {
		m.emit(n, out, val)
		return
	}
	for _, d := range n.Outs[out] {
		pi := m.pidx(d)
		due := m.cycle + lat
		if due <= m.cycle {
			due = m.cycle + 1 // this cycle's due tokens already delivered
		}
		if due < m.lastDue[pi] {
			due = m.lastDue[pi]
		}
		m.lastDue[pi] = due
		m.delayed.Push(due, push{to: d, src: n.ID, val: val})
		m.inFlight[pi]++
		m.live++
	}
}

// memPending reports whether any destination queue of (node, out) still
// awaits an in-flight memory response.
//
//tyr:hotpath
func (m *machine) memPending(n *dfg.Node, out int) bool {
	for _, d := range n.Outs[out] {
		if m.inFlight[m.pidx(d)] > 0 {
			return true
		}
	}
	return false
}

// fireNode executes one node, popping inputs immediately and staging
// outputs for delivery at the end of the cycle.
//
//tyr:hotpath
func (m *machine) fireNode(nid dfg.NodeID) error {
	n := &m.g.Nodes[nid]
	m.fired++
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindFire,
			Node: int32(nid), Block: int32(n.Block)})
	}

	switch n.Op {
	case dfg.OpMerge:
		dec := m.input(n, 0)
		var v int64
		if dec != 0 {
			v = m.input(n, 2)
		} else {
			v = m.input(n, 1)
		}
		m.emit(n, 0, v)
	case dfg.OpSteer:
		dec := m.input(n, 0)
		data := m.input(n, 1)
		out := dfg.SteerFalseOut
		if dec != 0 {
			out = dfg.SteerTrueOut
		}
		m.emit(n, out, data)
		m.emit(n, dfg.SteerCtrlOut, 0)
	case dfg.OpBin:
		a, b := m.input(n, 0), m.input(n, 1)
		v, err := dfg.EvalBin(n.Bin, a, b)
		if err != nil {
			return fmt.Errorf("ordered: %q: %w", n.Label, err)
		}
		m.emit(n, 0, v)
	case dfg.OpSelect:
		c, t, f := m.input(n, 0), m.input(n, 1), m.input(n, 2)
		v := f
		if c != 0 {
			v = t
		}
		m.emit(n, 0, v)
	case dfg.OpLoad:
		addr := m.input(n, 0)
		if n.NIn == 2 {
			m.input(n, 1) // ordering token
		}
		v, err := m.im.Load(m.memIdx[n.Region], addr)
		if err != nil {
			return fmt.Errorf("ordered: %q: %w", n.Label, err)
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindMemLoad,
				Node: int32(nid), Block: int32(n.Block), Val: v})
		}
		m.emitMem(n, dfg.LoadValOut, v, m.memLatency(mem.AccessLoad, n.Region, addr))
	case dfg.OpStore:
		addr := m.input(n, 0)
		val := m.input(n, 1)
		if n.NIn == 3 {
			m.input(n, 2) // ordering token
		}
		if err := m.im.Store(m.memIdx[n.Region], addr, val); err != nil {
			return fmt.Errorf("ordered: %q: %w", n.Label, err)
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindMemStore,
				Node: int32(nid), Block: int32(n.Block), Val: val})
		}
		// The word lands at fire time; only the ordering token waits.
		m.emitMem(n, dfg.StoreCtrlOut, 0, m.memLatency(mem.AccessStore, n.Region, addr))
	case dfg.OpForward, dfg.OpJoin:
		vals := m.vals[:n.NIn]
		for in := 0; in < n.NIn; in++ {
			vals[in] = m.input(n, in)
		}
		if nid == m.g.Result {
			m.resultSeen = true
			m.resultVal = vals[0]
		}
		m.emit(n, 0, vals[0])
	case dfg.OpGate:
		m.input(n, 0)
		v := m.input(n, 1)
		m.emit(n, 0, v)
	default:
		return fmt.Errorf("ordered: op %s not executable on the FIFO machine (lowering bug)", n.Op)
	}

	// Re-arm: this node (more queued inputs), consumers (new data), and
	// producers into the queues we just drained (freed space).
	m.nextDirty.add(nid)
	for _, dests := range n.Outs {
		for _, d := range dests {
			m.nextDirty.add(d.Node)
		}
	}
	for _, p := range m.producersOf[nid] {
		m.nextDirty.add(p)
	}
	return nil
}

// stopErr is the error a cancelled run returns; split out so the loop's
// normal path carries no formatting.
func (m *machine) stopErr() error {
	return fmt.Errorf("ordered: run stopped at cycle %d: %w", m.cycle, cancel.ErrStopped)
}

// stepCycle advances the machine by exactly one simulated cycle and
// reports whether the machine has quiesced. run owns cancel polling and
// termination, and the step stays allocation-free on its fast path.
//
//tyr:hotpath
func (m *machine) stepCycle() (bool, error) {
	if len(m.dirty.list) == 0 && m.delayed.Len() == 0 {
		return true, nil
	}
	for _, p := range m.delayed.Take(m.cycle) {
		m.queues[p.to.Node][p.to.In].push(p.val)
		m.inFlight[m.pidx(p.to)]--
		m.dirty.add(p.to.Node)
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindDeliver,
				Node: int32(p.to.Node), Src: int32(p.src),
				Block: int32(m.g.Nodes[p.to.Node].Block),
				Port:  int16(p.to.In), Val: p.val})
		}
	}
	if m.cycle >= m.cfg.MaxCycles {
		return false, fmt.Errorf("ordered: exceeded MaxCycles=%d", m.cfg.MaxCycles)
	}

	// Deterministic candidate order: the dirty list holds the same
	// set the seed kept as map keys; sorting it in place restores the
	// seed's candidate order without a per-cycle allocation.
	candidates := m.dirty.list
	sortNodeIDs(candidates)

	budget := m.cfg.IssueWidth
	firedThisCycle := 0
	for _, nid := range candidates {
		if budget == 0 {
			m.nextDirty.add(nid) // retry next cycle
			continue
		}
		if !m.ready(nid) {
			continue
		}
		if err := m.fireNode(nid); err != nil {
			return false, err
		}
		budget--
		firedThisCycle++
	}

	// Deliver staged tokens, unwinding their staged-count reservations.
	for _, p := range m.staged {
		m.queues[p.to.Node][p.to.In].push(p.val)
		m.stagedN[m.pidx(p.to)] = 0
		m.nextDirty.add(p.to.Node)
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindDeliver,
				Node: int32(p.to.Node), Src: int32(p.src),
				Block: int32(m.g.Nodes[p.to.Node].Block),
				Port:  int16(p.to.In), Val: p.val})
		}
	}
	m.staged = m.staged[:0]

	m.dirty.clear()
	m.dirty, m.nextDirty = m.nextDirty, m.dirty

	m.cycle++
	m.ipcHist[firedThisCycle]++
	m.sumLive += m.live
	if m.live > m.peakLive {
		m.peakLive = m.live
	}
	m.samplePoint()
	return false, nil
}

// run is the machine's serial driver: one stepCycle per simulated cycle,
// polling the cancel flag at every cycle boundary, allocation-free in
// steady state.
//
//tyr:cycleloop
//tyr:hotpath
func (m *machine) run() (Result, error) {
	for {
		if m.cfg.Stop.Stopped() {
			return Result{}, m.stopErr()
		}
		done, err := m.stepCycle()
		if err != nil {
			return Result{}, err
		}
		if done {
			break
		}
	}
	return m.finish()
}

// finish assembles the Result once the loop has quiesced. Split from run
// so the loop itself stays allocation-free (//tyr:hotpath): everything
// here runs exactly once per simulation.
func (m *machine) finish() (Result, error) {
	m.flushTrace()
	ipc := make(map[int]int64)
	for k, v := range m.ipcHist {
		if v != 0 {
			ipc[k] = v
		}
	}
	res := Result{
		Completed:   m.resultSeen,
		Cycles:      m.cycle,
		Fired:       m.fired,
		ResultValue: m.resultVal,
		PeakLive:    m.peakLive,
		IPCHist:     ipc,
		Trace:       m.tracePts,
		TraceStride: m.traceStride,
		Note:        fmt.Sprintf("queue-cap=%d width=%d", m.cfg.QueueCap, m.cfg.IssueWidth),
	}
	if m.cycle > 0 {
		res.MeanLive = float64(m.sumLive) / float64(m.cycle)
	}
	if !m.resultSeen {
		return res, fmt.Errorf("ordered: machine quiesced without producing a result (%d tokens queued)", m.live)
	}
	return res, nil
}

// samplePoint maintains the live-state trace with max-preserving
// decimation: each stride window contributes its peak-live sample, so
// decimation never erases the trace's true peak.
//
//tyr:hotpath
func (m *machine) samplePoint() {
	if m.cfg.TracePoints <= 0 {
		return
	}
	if !m.winValid || m.live > m.winMax {
		m.winMax, m.winMaxCycle = m.live, m.cycle
		m.winValid = true
	}
	if m.cycle%m.traceStride != 0 {
		return
	}
	m.tracePts = append(m.tracePts, StatePoint{Cycle: m.winMaxCycle, Live: m.winMax})
	m.winValid = false
	if len(m.tracePts) >= m.cfg.TracePoints {
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

// flushTrace closes the trace at end of run: the pending window's max and
// the final state point are appended, then the cap is re-imposed.
func (m *machine) flushTrace() {
	if m.cfg.TracePoints <= 0 {
		return
	}
	if m.winValid {
		m.tracePts = append(m.tracePts, StatePoint{Cycle: m.winMaxCycle, Live: m.winMax})
		m.winValid = false
	}
	if n := len(m.tracePts); n == 0 || m.tracePts[n-1].Cycle < m.cycle {
		m.tracePts = append(m.tracePts, StatePoint{Cycle: m.cycle, Live: m.live})
	}
	for len(m.tracePts) > m.cfg.TracePoints && len(m.tracePts) >= 3 {
		m.tracePts = decimatePoints(m.tracePts)
		m.traceStride *= 2
	}
}

func sortNodeIDs(ids []dfg.NodeID) {
	// Insertion sort: candidate sets are small and mostly ordered.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
