package core

import (
	"fmt"
	"sort"

	"repro/internal/cancel"
	"repro/internal/cq"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// token is one in-flight value, addressed to input port in of node node;
// 32 bytes, two to a cache line. src is the producing node
// (dfg.InvalidNode for entry injections), kept for the trace's dependency
// edges.
type token struct {
	tag  uint64
	val  int64
	node dfg.NodeID
	in   int32
	src  dfg.NodeID
}

type fireRef struct {
	node dfg.NodeID
	tag  uint64
}

// firing is one node's firing record: all deliver, fire and emit read
// about a node, built once by newMachine so the per-token path never
// touches the node's dfg.Node.
type firing struct {
	// outs[p]..outs[p+1] is output port p's range in the machine's flat
	// destination array; ports past the op's last are empty.
	outs     [dfg.MaxOut + 1]int32
	consts   uint64 // const-bound input ports below 64; higher ones are read from dfg.Node.ConstIn
	block    dfg.BlockID
	space    dfg.BlockID // allocate, free: the target tag space
	needInit int32       // token-fed operands a fresh instance waits for
	memIdx   int32       // load, store: region index in the memory image
	reserve  int32       // allocate: tags kept back for the tail-recursive edge
	op       dfg.Op
	bin      dfg.BinKind
	external bool  // allocate: enters its space from outside
	oneBlock uint8 // bit p: output port p has destinations, all in one block
}

// dest is one destination of an output port: the input port a token goes
// to and the block whose live count the token is charged to.
type dest struct {
	node dfg.NodeID
	in   int32
	blk  dfg.BlockID
}

const (
	allocRequestPort = 0
	allocReadyPort   = 1
)

// budget bounds the tags out of the spaces that draw on it: a block's
// pool under tyr and local-nogate, the machine's under global-bounded,
// and one leaf-loop invocation's k under k-bound. An allocate it cannot
// admit parks on pending until one of its tags is freed.
type budget struct {
	limit   int // tags it admits at once
	out     int // tags it has out
	pending []fireRef
}

// A tag space's budget (tagSpace.bud), or the budget an index was drawn
// on (tagSpace.by), when it is not an index into machine.budgets.
const (
	noBudget  int32 = -1 // nothing bounds the space (unordered)
	invBudget int32 = -2 // each live invocation has its own (k-bound's leaf loops)
	notOut    int32 = -3 // tagSpace.by: the index is not out
)

// tagSpace is one tag space's free list of pool indices: every tag of
// space s is s<<32 | i with i below n = len(by). The list hands out the
// index freed last, or else index n, so n is always the space's peak tags
// in use, and n - len(free) its tags out.
type tagSpace struct {
	free []uint32 // freed indices, the one freed last on top
	// by[i] is the budget index i was drawn on (an index into
	// machine.budgets, or noBudget), or notOut.
	by []int32
	// bud is the budget every allocate into the space draws on: an index
	// into machine.budgets, noBudget or invBudget.
	bud int32
}

// pop hands out a tag of space, drawn on budget b: the index freed last,
// or else index n.
//
//tyr:hotpath
func (ts *tagSpace) pop(space dfg.BlockID, b int32) uint64 {
	var i uint32
	if k := len(ts.free); k > 0 {
		i = ts.free[k-1]
		ts.free = ts.free[:k-1]
		ts.by[i] = b
	} else {
		i = uint32(len(ts.by))
		ts.by = append(ts.by, b)
	}
	return uint64(space)<<32 | uint64(i)
}

// drawnOn returns the budget tag, a tag of space, was drawn on, or notOut
// when the space does not have it out.
//
//tyr:hotpath
func (ts *tagSpace) drawnOn(space dfg.BlockID, tag uint64) int32 {
	if i := tag - uint64(space)<<32; i < uint64(len(ts.by)) {
		return ts.by[i]
	}
	return notOut
}

// out reports the space's tags out.
func (ts *tagSpace) out() int { return len(ts.by) - len(ts.free) }

type machine struct {
	g   *dfg.Graph
	im  *mem.Image
	cfg Config

	nodes  []firing
	dests  []dest // every output port's destinations, ranged by firing.outs
	stores []waitStore

	// The tag sources: one free list per space, under every policy, and
	// the budgets that bound them. A k-bound invocation's budget goes
	// back on idleBudgets when its last tag retires, for the next one.
	spaces      []tagSpace
	budgets     []budget
	idleBudgets []int32
	// spaceTags is each space's reported tag budget: the global budget
	// under global-bounded, the block's pool (TagsPerBlock or its
	// BlockTags override; per invocation under k-bounding) for bounded
	// spaces, and 0 for unbounded ones.
	spaceTags []int

	allocCount   []int64
	totalInUse   int
	peakTags     int
	kbPeakPerInv int

	// ready is the one ready queue, a deque (head index + compaction) so
	// leftover refs from a budget-limited cycle carry over without
	// reallocating. deliver and wakeRefs append to it; a cycle's fire loop
	// stops at the length it had when the loop began, so refs woken
	// mid-loop wait for the next cycle, behind the leftovers and ahead of
	// the next cycle's completions. The double-buffered outbox recycles
	// its backing arrays.
	ready       []fireRef
	readyHead   int
	outbox      []token
	outboxSpare []token

	// delayed holds load results and store completions due in future
	// cycles under Config.Memory, bucketed by absolute due cycle.
	delayed cq.Queue[token]

	live int64

	// Per-block live-token accounting: which concurrent block's
	// instructions are holding the state (tokens attribute to their
	// destination node's block). Guides per-region tag tuning.
	liveByBlock []int64
	peakByBlock []int64

	// Token-store occupancy (the paper's Problem #2): peak number of
	// waiting instances per static instruction — the associative-match
	// capacity a hardware token store would need.
	storePeak []int32

	// pages recycles the stores' directory pages.
	pages pagePool

	// Monsoon-style classification (Sec. VIII): tokens that stay within
	// a concurrent block could use frame offsets; only transfer-point
	// (changeTag) traffic needs cross-context routing.
	frameTokens int64
	crossTokens int64

	cycle    int64
	fired    int64
	sumLive  int64
	peakLive int64
	// ipcHist is indexed by instructions fired in a cycle; the issue
	// width bounds it, so a flat slice replaces the seed's map (whose
	// buckets also grew without bound on long runs).
	ipcHist []int64

	liveTrace metrics.LiveTrace

	// rec receives the event stream, nil unless Config.Tracer is set.
	rec *trace.Recorder

	// san is the runtime sanitizer, nil unless Config.Sanitize is set.
	san *sanitizer

	done      bool
	resultVal int64
}

// validateConfig rejects policy configurations no run can execute; cfg
// must already carry its defaults.
func validateConfig(cfg Config) error {
	switch cfg.Policy {
	case PolicyTyr, PolicyLocalNoGate, PolicyKBound:
		if cfg.TagsPerBlock < 2 {
			return fmt.Errorf("core: %v needs at least 2 tags per block (got %d)", cfg.Policy, cfg.TagsPerBlock)
		}
		// Validate in sorted order so the reported block is deterministic
		// when several are misconfigured.
		names := make([]string, 0, len(cfg.BlockTags))
		//tyr:nondet-ok -- keys only collected here, sorted before use
		for name := range cfg.BlockTags {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if n := cfg.BlockTags[name]; n < 2 {
				return fmt.Errorf("core: block %q needs at least 2 tags (got %d)", name, n)
			}
		}
	case PolicyGlobalBounded:
		if cfg.GlobalTags < 1 {
			return fmt.Errorf("core: bounded global policy needs at least 1 tag (got %d)", cfg.GlobalTags)
		}
	}
	return nil
}

// Run executes a tagged dataflow graph against the memory image (mutated in
// place). Deadlock is a reportable outcome, not an error; errors indicate
// program or machine bugs (out-of-bounds access, token collisions, ...).
func Run(g *dfg.Graph, im *mem.Image, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := validateConfig(cfg); err != nil {
		return Result{}, err
	}
	m, err := newMachine(g, im, cfg)
	if err != nil {
		return Result{}, err
	}
	return m.run()
}

// newMachine derives each node's firing record from the graph and the
// memory image's region layout (operand counts, const-bound ports,
// destinations with their blocks, tail-recursion reserves, region
// indices) and builds the machine's mutable state around it.
func newMachine(g *dfg.Graph, im *mem.Image, cfg Config) (*machine, error) {
	memIdx := make([]int32, len(g.MemNames)) // graph region -> image region
	for i, name := range g.MemNames {
		idx, ok := im.Index(name)
		if !ok {
			return nil, fmt.Errorf("core: memory image missing region %q", name)
		}
		memIdx[i] = int32(idx)
	}
	ndests := 0
	for i := range g.Nodes {
		for _, ds := range g.Nodes[i].Outs {
			ndests += len(ds)
		}
	}
	nodes := make([]firing, len(g.Nodes))
	dests := make([]dest, 0, ndests)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		f := &nodes[i]
		f.op, f.bin, f.block, f.space, f.external = n.Op, n.Bin, n.Block, n.Space, n.External
		for port := 0; port < n.NIn; port++ {
			if !n.ConstIn[port].Valid {
				f.needInit++
			} else if port < 64 {
				f.consts |= 1 << port
			}
		}
		switch n.Op {
		case dfg.OpAllocate:
			if n.External && g.Blocks[n.Space].TailRecursive {
				f.reserve = 1
			}
		case dfg.OpLoad, dfg.OpStore:
			f.memIdx = memIdx[n.Region]
		}
		for p := 0; p < dfg.MaxOut; p++ {
			f.outs[p] = int32(len(dests))
			if p >= len(n.Outs) {
				continue
			}
			for _, d := range n.Outs[p] {
				dests = append(dests, dest{node: d.Node, in: int32(d.In), blk: g.Nodes[d.Node].Block})
			}
			if ds := dests[f.outs[p]:]; len(ds) > 0 && sameBlock(ds) {
				f.oneBlock |= 1 << p
			}
		}
		f.outs[dfg.MaxOut] = int32(len(dests))
	}

	m := &machine{
		g:       g,
		im:      im,
		cfg:     cfg,
		nodes:   nodes,
		dests:   dests,
		stores:  make([]waitStore, len(g.Nodes)),
		ipcHist: make([]int64, cfg.IssueWidth+1),
	}
	m.storePeak = make([]int32, len(g.Nodes))
	m.liveByBlock = make([]int64, len(g.Blocks))
	m.peakByBlock = make([]int64, len(g.Blocks))
	nspaces := len(g.Blocks)
	if cfg.Sanitize {
		m.san = newSanitizer(nspaces)
	}
	m.liveTrace = metrics.NewLiveTrace(cfg.TracePoints)
	m.rec = cfg.Tracer

	m.allocCount = make([]int64, nspaces)
	m.spaces = make([]tagSpace, nspaces)
	m.spaceTags = make([]int, nspaces)
	for s := range m.spaces {
		m.spaces[s].bud = noBudget
	}
	switch cfg.Policy {
	case PolicyTyr, PolicyLocalNoGate:
		m.budgets = make([]budget, nspaces)
		for s := range g.Blocks {
			m.spaceTags[s] = blockTags(cfg, &g.Blocks[s])
			m.budgets[s].limit = m.spaceTags[s]
			m.spaces[s].bud = int32(s)
		}
	case PolicyKBound:
		// TTDA-style: only leaf loops are bounded — blocks that are
		// tail-recursive and spawn no other concurrent block (no
		// allocate inside them targets a different space). The root
		// block is never tail-recursive.
		for s := range g.Blocks {
			if g.Blocks[s].TailRecursive {
				m.spaces[s].bud = invBudget
			}
		}
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if n.Op == dfg.OpAllocate && n.Space != n.Block {
				m.spaces[n.Block].bud = noBudget
			}
		}
		for s := range g.Blocks {
			if m.spaces[s].bud == invBudget {
				m.spaceTags[s] = blockTags(cfg, &g.Blocks[s])
			}
		}
	case PolicyGlobalBounded:
		m.budgets = []budget{{limit: cfg.GlobalTags}}
		for s := range g.Blocks {
			m.spaceTags[s] = cfg.GlobalTags
			m.spaces[s].bud = 0
		}
	}

	// A node's tokens carry tags of its block's space, space<<32 | i, so
	// under every policy the pool index i names the waiting instance.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		m.stores[i].init(n.NIn, (n.NIn+63)/64, nodes[i].needInit, constVals(n), uint64(n.Block)<<32, &m.pages)
	}
	return m, nil
}

// blockTags is a bounded block's pool size: TagsPerBlock, or the block's
// BlockTags override.
func blockTags(cfg Config, b *dfg.Block) int {
	if override, ok := cfg.BlockTags[b.Name]; ok {
		return override
	}
	return cfg.TagsPerBlock
}

// sameBlock reports whether every destination in ds is in one block.
func sameBlock(ds []dest) bool {
	for _, d := range ds[1:] {
		if d.blk != ds[0].blk {
			return false
		}
	}
	return true
}

// constVals is a node's constant operand per input port (zero on
// token-fed ports), or nil when no port is const-bound.
func constVals(n *dfg.Node) []int64 {
	var vals []int64
	for port, c := range n.ConstIn[:n.NIn] {
		if c.Valid {
			if vals == nil {
				vals = make([]int64, n.NIn)
			}
			vals[port] = c.V
		}
	}
	return vals
}

// allocRoot takes the tag for the root context. Every budget admits at
// least one tag (validateConfig), and the root block is never a k-bound
// leaf loop.
func (m *machine) allocRoot() uint64 {
	ts := &m.spaces[0]
	b := ts.bud
	if b >= 0 {
		m.budgets[b].out++
	}
	tag := ts.pop(0, b)
	m.noteAlloc(0)
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindTagAlloc,
			Node: trace.NoNode, Block: 0, Tag: tag, Val: int64(ts.out())})
	}
	return tag
}

//tyr:hotpath
func (m *machine) noteAlloc(space dfg.BlockID) {
	m.allocCount[space]++
	m.totalInUse++
	if m.totalInUse > m.peakTags {
		m.peakTags = m.totalInUse
	}
}

// openInvocation hands out a budget of limit tags for a new invocation of
// a k-bound leaf loop: an idle one when there is one.
//
//tyr:hotpath
func (m *machine) openInvocation(limit int) int32 {
	if k := len(m.idleBudgets); k > 0 {
		b := m.idleBudgets[k-1]
		m.idleBudgets = m.idleBudgets[:k-1]
		m.budgets[b].limit = limit
		return b
	}
	m.budgets = append(m.budgets, budget{limit: limit})
	return int32(len(m.budgets) - 1)
}

// freeTag returns a tag to its space's list and the tag to the budget it
// was drawn on, then wakes the allocates parked on that budget. A free
// (node nid) of a tag its space does not have out, never handed out or
// already freed, is a run error. A k-bound invocation whose last tag
// retires leaves its budget idle for the next one.
//
//tyr:hotpath
func (m *machine) freeTag(nid dfg.NodeID, space dfg.BlockID, tag uint64) error {
	ts := &m.spaces[space]
	b := ts.drawnOn(space, tag)
	if b == notOut {
		return fmt.Errorf("core: free %q of tag %#x, which space %q does not have out",
			m.g.Nodes[nid].Label, tag, m.g.Blocks[space].Name)
	}
	i := uint32(tag) // the pool index: drawnOn found it below n
	ts.by[i] = notOut
	m.totalInUse--
	ts.free = append(ts.free, i)
	if b < 0 {
		return nil
	}
	bu := &m.budgets[b]
	bu.out--
	if refs := bu.pending; len(refs) > 0 {
		bu.pending = refs[:0]
		m.wakeRefs(refs)
	} else if bu.out == 0 && ts.bud == invBudget {
		m.idleBudgets = append(m.idleBudgets, b)
	}
	return nil
}

// wakeRefs moves starved allocates back into the ready flow.
//
//tyr:hotpath
func (m *machine) wakeRefs(refs []fireRef) {
	for _, ref := range refs {
		ws := &m.stores[ref.node]
		slot := ws.lookup(ref.tag)
		if slot < 0 || ws.queued(slot) {
			continue
		}
		ws.clearFlag(slot, wsParked)
		ws.setFlag(slot, wsQueued)
		m.ready = append(m.ready, ref)
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindWake,
				Node: int32(ref.node), Block: int32(m.nodes[ref.node].space), Tag: ref.tag})
		}
	}
}

// push queues a token for delivery at the start of the next cycle, with no
// accounting.
//
//tyr:hotpath
func (m *machine) push(src dfg.NodeID, d dest, tag uint64, val int64) {
	// Fill the token in place: building it as a literal and copying it in
	// stalls on store forwarding.
	m.outbox = append(m.outbox, token{})
	t := &m.outbox[len(m.outbox)-1]
	t.tag, t.val, t.node, t.in, t.src = tag, val, d.node, d.in, src
}

// charge counts k new live tokens against block blk.
//
//tyr:hotpath
func (m *machine) charge(blk dfg.BlockID, k int64) {
	m.live += k
	m.liveByBlock[blk] += k
	if m.liveByBlock[blk] > m.peakByBlock[blk] {
		m.peakByBlock[blk] = m.liveByBlock[blk]
	}
}

// emit queues one produced token and accounts for it alone: the path of
// entry injections and changeTagDyn's computed destination. src is the
// producing node, dfg.InvalidNode for entry injections.
//
//tyr:hotpath
func (m *machine) emit(src dfg.NodeID, d dest, tag uint64, val int64) {
	m.push(src, d, tag, val)
	m.charge(d.blk, 1)
	if m.san != nil {
		m.san.count(m, tag, 1)
	}
	if m.rec != nil {
		m.recordEmit(src, d, tag, val)
	}
}

//tyr:hotpath
func (m *machine) recordEmit(src dfg.NodeID, d dest, tag uint64, val int64) {
	m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindEmit,
		Node: int32(d.node), Src: int32(src), Block: int32(d.blk),
		Port: int16(d.in), Tag: tag, Val: val})
}

// emitAll fans a value out to every destination of output port out of
// node src, whose firing record is f.
//
//tyr:hotpath
func (m *machine) emitAll(src dfg.NodeID, f *firing, out int, tag uint64, val int64) {
	ds := m.dests[f.outs[out]:f.outs[out+1]]
	for _, d := range ds {
		m.push(src, d, tag, val)
	}
	if m.rec != nil {
		for _, d := range ds {
			m.recordEmit(src, d, tag, val)
		}
	}
	m.chargePort(f, out, ds, tag)
}

// chargePort counts the tokens just produced on output port out, to
// destinations ds, as live, and as frame or cross-context traffic. A port
// whose destinations share a block is charged its fan-out at once:
// nothing decrements between its tokens, so the block's peak comes out as
// if they were charged one by one. Every token on a port carries one tag,
// so the sanitizer's count for it rises by the fan-out.
//
//tyr:hotpath
func (m *machine) chargePort(f *firing, out int, ds []dest, tag uint64) {
	if len(ds) == 0 {
		return
	}
	if out == dfg.CTDataOut && (f.op == dfg.OpChangeTag || f.op == dfg.OpChangeTagDyn) {
		m.crossTokens += int64(len(ds))
	} else {
		m.frameTokens += int64(len(ds))
	}
	if m.san != nil {
		m.san.count(m, tag, int64(len(ds)))
	}
	if f.oneBlock&(1<<out) != 0 {
		m.charge(ds[0].blk, int64(len(ds)))
		return
	}
	for _, d := range ds {
		m.charge(d.blk, 1)
	}
}

// memLatency resolves the latency of one memory access to image region
// region: the attached timing model when configured, else one cycle (the
// ideal flat memory).
//
//tyr:hotpath
func (m *machine) memLatency(kind mem.AccessKind, region int32, addr int64) int64 {
	if m.cfg.Memory != nil {
		return m.cfg.Memory.Access(m.cycle, kind, int(region), addr)
	}
	return 1
}

// emitAllDelayed fans a value out to every destination of an output port,
// with delivery deferred to the due cycle (the multi-cycle memory path).
// The tokens count as live from emission, like their prompt counterparts.
//
//tyr:hotpath
func (m *machine) emitAllDelayed(src dfg.NodeID, f *firing, out int, tag uint64, val int64, due int64) {
	ds := m.dests[f.outs[out]:f.outs[out+1]]
	for _, d := range ds {
		m.delayed.Push(due, token{tag: tag, val: val, node: d.node, in: d.in, src: src})
	}
	m.chargePort(f, out, ds, tag)
}

// consume retires k operand tokens of one instance of block blk.
//
//tyr:hotpath
func (m *machine) consume(blk dfg.BlockID, tag uint64, k int32) {
	m.live -= int64(k)
	m.liveByBlock[blk] -= int64(k)
	if m.san != nil {
		m.san.count(m, tag, -int64(k))
	}
}

// evSeq reports the tracer's next event sequence number, for linking
// sanitizer diagnostics to the exported trace. Zero without a tracer.
//
//tyr:hotpath
func (m *machine) evSeq() uint64 {
	if m.rec == nil {
		return 0
	}
	return m.rec.Seq()
}

// deliver routes one token into its node's token store, possibly completing
// an instance and scheduling it.
//
//tyr:hotpath
func (m *machine) deliver(t *token) error {
	nid := t.node
	port := int(t.in)
	f := &m.nodes[nid]
	ws := &m.stores[nid]
	slot := ws.lookup(t.tag)
	if slot < 0 {
		slot = ws.insert(t.tag, uint32(len(m.spaces[f.block].by)))
		if slot < 0 {
			// A store has no slot for a tag from another space, or for
			// one its block's list never handed out.
			n := &m.g.Nodes[nid]
			return fmt.Errorf("core: token for %s %q carries tag %#x, outside the %d tags block %q's list holds",
				n.Op, n.Label, t.tag, len(m.spaces[n.Block].by), m.g.Blocks[n.Block].Name)
		}
		if occ := int32(ws.len()); occ > m.storePeak[nid] {
			m.storePeak[nid] = occ
		}
	}
	if ws.has(slot, port) {
		n := &m.g.Nodes[nid]
		if m.san != nil {
			return m.san.fail(Diagnostic{
				Kind: DiagTokenCollision, Cycle: m.cycle, Node: nid, Label: n.Label, Tag: t.tag, Event: m.evSeq(),
				Detail: fmt.Sprintf("second token at %s port %d for tag %#x (fan-in overflow; free barrier violated?)",
					n.Op, port, t.tag),
			})
		}
		return fmt.Errorf("core: token collision at %s %q port %d tag %#x (free barrier violated?)",
			n.Op, n.Label, port, t.tag)
	}
	// Refused before its value is written, so a record's constant
	// operands, written when the record was allocated, never change.
	if port < 64 && f.consts&(1<<port) != 0 || port >= 64 && m.g.Nodes[nid].ConstIn[port].Valid {
		return fmt.Errorf("core: token delivered to const-bound port %d of %q", port, m.g.Nodes[nid].Label)
	}
	ws.set(slot, port)
	ws.valSlice(slot)[port] = t.val
	ws.need[slot]--
	if m.rec != nil {
		kind := trace.KindDeliver
		if f.op == dfg.OpJoin {
			kind = trace.KindJoinArrive
		}
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: kind,
			Node: int32(nid), Src: int32(t.src), Block: int32(f.block),
			Port: int16(port), Tag: t.tag, Val: t.val})
	}

	if f.op == dfg.OpAllocate {
		return m.deliverAllocate(nid, f, t.tag, slot)
	}
	if ws.need[slot] == 0 && !ws.queued(slot) {
		ws.setFlag(slot, wsQueued)
		m.ready = append(m.ready, fireRef{node: nid, tag: t.tag})
	}
	return nil
}

// deliverAllocate handles allocate's special firing rule on token arrival.
//
//tyr:hotpath
func (m *machine) deliverAllocate(nid dfg.NodeID, f *firing, tag uint64, slot int32) error {
	ws := &m.stores[nid]
	if ws.popped(slot) {
		// Tag already handed out; the ready token completes the
		// instruction and releases the control output for the barrier.
		if ws.has(slot, allocReadyPort) {
			m.emitAll(nid, f, dfg.AllocCtrlOut, tag, 0)
			m.consume(f.block, tag, 1)
			ws.delSlot(tag, slot)
		}
		return nil
	}
	if !ws.has(slot, allocRequestPort) {
		return nil // ready arrived first; wait for the request
	}
	if ws.parked(slot) {
		// A ready token may unblock a starved allocate under TYR.
		ws.clearFlag(slot, wsParked)
	}
	if !ws.queued(slot) {
		ws.setFlag(slot, wsQueued)
		m.ready = append(m.ready, fireRef{node: nid, tag: tag})
	}
	return nil
}

// fire executes one ready instance. It reports whether an issue slot was
// consumed (a starved allocate parks instead).
//
// fire reads the operands in place, from the record it has just freed.
// That rests on one invariant: no insert into a store between its delSlot
// and the fire's last operand read. It holds because only deliver
// inserts, and no delivery runs during a fire; and a delete only relinks
// the record, leaving its values where they were.
//
//tyr:hotpath
func (m *machine) fire(ref fireRef) (bool, error) {
	f := &m.nodes[ref.node]
	ws := &m.stores[ref.node]
	slot := ws.lookup(ref.tag)
	if slot < 0 {
		return false, fmt.Errorf("core: fire of missing instance %q tag %#x", m.g.Nodes[ref.node].Label, ref.tag)
	}
	ws.clearFlag(slot, wsQueued)

	if f.op == dfg.OpAllocate {
		return m.fireAllocate(ref, f, slot)
	}

	v := ws.valSlice(slot)
	m.consume(f.block, ref.tag, f.needInit)
	ws.delSlot(ref.tag, slot)
	m.fired++
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindFire,
			Node: int32(ref.node), Block: int32(f.block), Tag: ref.tag})
	}

	switch f.op {
	case dfg.OpBin:
		out, err := dfg.EvalBin(f.bin, v[0], v[1])
		if err != nil {
			return true, fmt.Errorf("core: %q: %w", m.g.Nodes[ref.node].Label, err)
		}
		m.emitAll(ref.node, f, 0, ref.tag, out)
	case dfg.OpSelect:
		out := v[2]
		if v[0] != 0 {
			out = v[1]
		}
		m.emitAll(ref.node, f, 0, ref.tag, out)
	case dfg.OpLoad:
		val, err := m.im.Load(int(f.memIdx), v[0])
		if err != nil {
			return true, fmt.Errorf("core: %q: %w", m.g.Nodes[ref.node].Label, err)
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindMemLoad,
				Node: int32(ref.node), Block: int32(f.block), Tag: ref.tag, Val: v[0]})
		}
		if lat := m.memLatency(mem.AccessLoad, f.memIdx, v[0]); lat > 1 {
			// The value returns after the memory latency; barrier and
			// ordering consumers wait along with everyone else.
			m.emitAllDelayed(ref.node, f, dfg.LoadValOut, ref.tag, val, m.cycle+lat)
		} else {
			m.emitAll(ref.node, f, dfg.LoadValOut, ref.tag, val)
		}
	case dfg.OpStore:
		if err := m.im.Store(int(f.memIdx), v[0], v[1]); err != nil {
			return true, fmt.Errorf("core: %q: %w", m.g.Nodes[ref.node].Label, err)
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindMemStore,
				Node: int32(ref.node), Block: int32(f.block), Tag: ref.tag, Val: v[0]})
		}
		// The word is written at fire time (the model shapes time, not
		// values); only the completion token waits out the access latency.
		if lat := m.memLatency(mem.AccessStore, f.memIdx, v[0]); lat > 1 {
			m.emitAllDelayed(ref.node, f, dfg.StoreCtrlOut, ref.tag, 0, m.cycle+lat)
		} else {
			m.emitAll(ref.node, f, dfg.StoreCtrlOut, ref.tag, 0)
		}
	case dfg.OpSteer:
		out := dfg.SteerFalseOut
		if v[0] != 0 {
			out = dfg.SteerTrueOut
		}
		m.emitAll(ref.node, f, out, ref.tag, v[1])
		m.emitAll(ref.node, f, dfg.SteerCtrlOut, ref.tag, 0)
	case dfg.OpJoin, dfg.OpForward:
		if ref.node == m.g.Result {
			m.resultVal = v[0]
		}
		m.emitAll(ref.node, f, 0, ref.tag, v[0])
	case dfg.OpGate:
		m.emitAll(ref.node, f, 0, ref.tag, v[1])
	case dfg.OpExtractTag:
		m.emitAll(ref.node, f, 0, ref.tag, int64(ref.tag))
	case dfg.OpChangeTag:
		newTag := uint64(v[0])
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindChangeTag,
				Node: int32(ref.node), Block: int32(f.block), Tag: ref.tag, Val: int64(newTag)})
		}
		m.emitAll(ref.node, f, dfg.CTDataOut, newTag, v[1])
		m.emitAll(ref.node, f, dfg.CTCtrlOut, ref.tag, 0)
	case dfg.OpChangeTagDyn:
		newTag := uint64(v[0])
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindChangeTag,
				Node: int32(ref.node), Block: int32(f.block), Tag: ref.tag, Val: int64(newTag)})
		}
		to := dfg.DecodePort(v[2])
		m.emit(ref.node, dest{node: to.Node, in: int32(to.In), blk: m.g.Nodes[to.Node].Block}, newTag, v[1])
		m.crossTokens++
		m.emitAll(ref.node, f, dfg.CTCtrlOut, ref.tag, 0)
	case dfg.OpFree:
		if m.san != nil {
			if err := m.san.checkFree(m, &m.g.Nodes[ref.node], ref.tag); err != nil {
				return true, err
			}
		}
		if err := m.freeTag(ref.node, f.space, ref.tag); err != nil {
			return true, err
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindTagFree,
				Node: int32(ref.node), Block: int32(f.space), Tag: ref.tag,
				Val: int64(m.spaces[f.space].out())})
		}
		if ref.node == m.g.RootFree {
			m.done = true
		}
	default:
		return true, fmt.Errorf("core: op %s not executable on the tagged machine", f.op)
	}
	return true, nil
}

// fireAllocate attempts to pop a tag for a requesting context: it finds
// the budget the allocate draws on and pops when the budget admits a tag,
// else parks the allocate on it. Every policy allocates here; they differ
// only in their budgets (newMachine) and in whether ready gates the last
// free tags (tyr's rule).
//
//tyr:hotpath
func (m *machine) fireAllocate(ref fireRef, f *firing, slot int32) (bool, error) {
	ws := &m.stores[ref.node]
	if ws.popped(slot) {
		// Its tag has gone out already: a second would leak one.
		return false, fmt.Errorf("core: allocate %q fired again for tag %#x after its tag popped",
			m.g.Nodes[ref.node].Label, ref.tag)
	}
	ts := &m.spaces[f.space]
	b := ts.bud
	if b == invBudget {
		// TTDA-style k-bounding: an external allocate opens a new
		// invocation with a budget of k; a backedge draws on its own
		// invocation's, waiting for iteration i+1-k to retire when all k
		// are out. Invocations themselves are unbounded — the reason
		// k-bounding does not solve parallelism explosion in general.
		if f.external {
			b = m.openInvocation(m.spaceTags[f.space])
		} else if b = ts.drawnOn(f.space, ref.tag); b < 0 {
			return false, fmt.Errorf("core: allocate %q for tag %#x outside every live invocation of %q",
				m.g.Nodes[ref.node].Label, ref.tag, m.g.Blocks[f.space].Name)
		}
	}
	if b >= 0 {
		bu := &m.budgets[b]
		a := bu.limit - bu.out
		// Without a protocol, pop whenever the budget has a tag: the
		// naive bounding that deadlocks (Fig. 11 / Sec. VIII).
		canPop := a > 0
		if m.cfg.Policy == PolicyTyr {
			// The paper's forward-progress rule: pop freely above the
			// reserve+1 line; pop the last usable tag only for a ready
			// context; external allocates into tail-recursive blocks keep
			// one tag back for the backedge.
			r := int(f.reserve)
			canPop = a > r+1 || (ws.has(slot, allocReadyPort) && a > r)
		}
		if !canPop {
			ws.setFlag(slot, wsParked)
			bu.pending = append(bu.pending, ref)
			if m.rec != nil {
				m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindPark,
					Node: int32(ref.node), Block: int32(f.space), Tag: ref.tag, Val: int64(a)})
			}
			return false, nil
		}
		bu.out++
	}
	tag := ts.pop(f.space, b)
	if ts.bud == invBudget {
		m.kbPeakPerInv = max(m.kbPeakPerInv, m.budgets[b].out)
	}
	m.noteAlloc(f.space)
	m.fired++
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindFire,
			Node: int32(ref.node), Block: int32(f.block), Tag: ref.tag})
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindTagAlloc,
			Node: int32(ref.node), Block: int32(f.space), Tag: tag,
			Val: int64(ts.out())})
	}
	m.emitAll(ref.node, f, dfg.AllocTagOut, ref.tag, int64(tag))
	m.consume(f.block, ref.tag, 1) // the request token
	ws.setFlag(slot, wsPopped)
	if ws.has(slot, allocReadyPort) {
		m.emitAll(ref.node, f, dfg.AllocCtrlOut, ref.tag, 0)
		m.consume(f.block, ref.tag, 1) // the ready token
		ws.delSlot(ref.tag, slot)
	}
	return true, nil
}

// start allocates the root context and injects the entry tokens: the
// machine's state at cycle zero, before the first stepCycle.
func (m *machine) start() {
	rootTag := m.allocRoot()
	for _, inj := range m.g.Entries {
		to := inj.To
		m.emit(dfg.InvalidNode, dest{node: to.Node, in: int32(to.In), blk: m.g.Nodes[to.Node].Block}, rootTag, inj.Val)
	}
}

// stopErr is the error a cancelled run returns; split out so the loop's
// normal path carries no formatting.
func (m *machine) stopErr() error {
	return fmt.Errorf("core: run stopped at cycle %d: %w", m.cycle, cancel.ErrStopped)
}

// stepCycle advances the machine by exactly one simulated cycle: deliver
// last cycle's tokens, queueing the instances they complete, and fire up
// to IssueWidth instances. It reports done=true when the machine has
// quiesced (nothing ready, nothing in flight) — the caller then calls
// finish. run owns the cancel poll at every cycle boundary, which keeps
// the step itself free of termination logic.
//
//tyr:hotpath
func (m *machine) stepCycle() (bool, error) {
	// Deliver last cycle's tokens; completions join the ready queue.
	// The outbox is double-buffered: deliveries append new tokens to
	// the spare while the previous cycle's batch drains.
	box := m.outbox
	m.outbox = m.outboxSpare[:0]
	for i := range box {
		if err := m.deliver(&box[i]); err != nil {
			return false, err
		}
	}
	m.outboxSpare = box
	if m.delayed.Len() > 0 {
		due := m.delayed.Take(m.cycle)
		for i := range due {
			if err := m.deliver(&due[i]); err != nil {
				return false, err
			}
		}
	}
	if m.readyHead == len(m.ready) {
		if m.delayed.Len() > 0 {
			// Stalled on memory: burn an idle cycle.
			m.cycle++
			m.ipcHist[0]++
			m.sumLive += m.live
			m.liveTrace.Tick(m.cycle, m.live)
			return false, nil
		}
		return true, nil
	}
	if m.cycle >= m.cfg.MaxCycles {
		return false, fmt.Errorf("core: exceeded MaxCycles=%d (runaway program?)", m.cfg.MaxCycles)
	}

	// Refs woken while firing join the queue past end: next cycle's.
	budget := m.cfg.IssueWidth
	firedThisCycle := 0
	idx, end := m.readyHead, len(m.ready)
	for budget > 0 && idx < end {
		ref := m.ready[idx]
		idx++
		slot, err := m.fire(ref)
		if err != nil {
			return false, err
		}
		if slot {
			budget--
			firedThisCycle++
		}
	}
	// Once the fired prefix is at least as long as what is left, move the
	// rest down: the copy is paid for by the refs fired since the last
	// one, and the queue never holds more than twice its backlog.
	m.readyHead = idx
	if idx*2 >= len(m.ready) {
		n := copy(m.ready, m.ready[idx:])
		m.ready = m.ready[:n]
		m.readyHead = 0
	}

	m.cycle++
	m.ipcHist[firedThisCycle]++
	m.sumLive += m.live
	if m.live > m.peakLive {
		m.peakLive = m.live
	}
	m.liveTrace.Tick(m.cycle, m.live)
	return false, nil
}

// run is the main cycle loop.
//
//tyr:cycleloop
//tyr:hotpath
func (m *machine) run() (Result, error) {
	m.start()
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

// finish reports the quiesced machine. A run is complete only once the
// root free has fired and every token has drained. Work left over after
// the root free is a deadlock when an allocate starved, and an orphan
// error when none did; with the sanitizer on, its completion audit
// reports first, alongside the same Result.
func (m *machine) finish() (Result, error) {
	tr := m.liveTrace.CloseTicks(m.cycle, m.live)
	res := Result{
		Completed:               m.done && m.live == 0,
		Cycles:                  m.cycle,
		Fired:                   m.fired,
		ResultValue:             m.resultVal,
		PeakLive:                m.peakLive,
		IPCHist:                 metrics.Histogram(m.ipcHist),
		Trace:                   tr,
		TraceStride:             m.liveTrace.Stride(),
		PeakTags:                m.peakTags,
		KBoundPeakPerInvocation: m.kbPeakPerInv,
		FrameTokens:             m.frameTokens,
		CrossTokens:             m.crossTokens,
		Note:                    m.cfg.Describe(),
	}
	for _, occ := range m.storePeak {
		if int(occ) > res.PeakStorePerInstr {
			res.PeakStorePerInstr = int(occ)
		}
	}
	if m.cycle > 0 {
		res.MeanLive = float64(m.sumLive) / float64(m.cycle)
	}
	for s := range m.g.Blocks {
		if m.allocCount[s] == 0 && s != 0 {
			continue
		}
		res.Spaces = append(res.Spaces, metrics.SpaceStats{
			Block:          m.g.Blocks[s].Name,
			Tags:           m.spaceTags[s],
			PeakInUse:      len(m.spaces[s].by),
			Allocs:         m.allocCount[s],
			PeakLiveTokens: m.peakByBlock[s],
		})
	}

	var err error
	if !res.Completed {
		err = m.deadlock(&res)
	}
	if m.done && m.san != nil {
		if serr := m.san.atCompletion(m); serr != nil {
			return res, serr
		}
	}
	return res, err
}

// deadlock reports a machine that quiesced with work left over: the
// starved allocates and their blocks, or an error when no allocate
// starved and the leftover work cannot be a deadlock over tags.
func (m *machine) deadlock(res *Result) error {
	info := &DeadlockInfo{Cycle: m.cycle, LiveTokens: m.live}
	starved := make(map[dfg.BlockID]int)
	for b := range m.budgets {
		for _, ref := range m.budgets[b].pending {
			ws := &m.stores[ref.node]
			slot := ws.lookup(ref.tag)
			if slot < 0 || !ws.parked(slot) {
				continue
			}
			n := &m.g.Nodes[ref.node]
			starved[n.Space]++
			info.PendingAllocs = append(info.PendingAllocs, PendingAlloc{
				Node:     ref.node,
				Label:    n.Label,
				Space:    m.g.Blocks[n.Space].Name,
				Tag:      ref.tag,
				HasReady: ws.has(slot, allocReadyPort),
			})
		}
	}
	for s := range m.g.Blocks {
		count, ok := starved[dfg.BlockID(s)]
		if !ok {
			continue
		}
		blk := &m.g.Blocks[s]
		info.Spaces = append(info.Spaces, metrics.DeadlockSpace{
			Block:   blk.Name,
			Kind:    blk.Kind.String(),
			Tags:    m.spaceTags[s],
			InUse:   m.spaces[s].out(),
			Starved: count,
		})
	}
	if len(info.PendingAllocs) == 0 {
		if m.done {
			return fmt.Errorf("core: root context freed with %d tokens left over and no allocate starved (orphaned tokens)", m.live)
		}
		if m.live == 0 {
			return fmt.Errorf("core: machine quiesced without completing (graph bug)")
		}
	}
	res.Deadlocked = true
	res.Deadlock = info
	return nil
}
