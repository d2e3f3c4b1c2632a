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

// nodeInfo caches per-node firing metadata.
type nodeInfo struct {
	needInit  int32
	constVals []int64
	words     int // present bitset words
	reserve   int // allocate: tags kept back for the tail-recursive edge
	memIdx    int // load/store: region index in the memory image
}

const (
	allocRequestPort = 0
	allocReadyPort   = 1
)

// kbRec is one live loop invocation's k-bound state: its remaining tag
// pool, the count of tags out, and the allocates parked on exhaustion.
// Records live in a machine-owned arena and recycle through a freelist,
// keeping their pool/pending capacity across invocations.
type kbRec struct {
	pool    []uint64
	pending []fireRef
	out     int
}

type machine struct {
	g   *dfg.Graph
	im  *mem.Image
	cfg Config

	info   []nodeInfo
	stores []waitStore

	// Tag pools. Per-space policies (TYR, local-nogate, k-bound): one
	// pool per pooled block, with spacePooled marking which blocks are
	// bounded. Global bounded: poolGlobal. Unpooled spaces draw unique
	// tags from the globalNext counter (offset away from pooled
	// encodings).
	poolLocal   [][]uint64
	spacePooled []bool
	poolGlobal  []uint64
	globalNext  uint64
	// spaceTags is each space's tag budget: the global pool under
	// bounded-global, the block's pool (TagsPerBlock or its BlockTags
	// override; per invocation under k-bounding) for pooled spaces, and 0
	// for unbounded ones.
	spaceTags []int

	inUse      []int // tags currently allocated, per target space
	peakInUse  []int
	allocCount []int64
	totalInUse int
	peakTags   int

	pending [][]fireRef // starved allocates per space (global: index 0)

	// k-bounding state (PolicyKBound): TTDA allocates a fresh contiguous
	// block of k tags to every loop *invocation*, so pools are keyed by
	// invocation, created at the external transfer point and reclaimed
	// when the last tag retires. kbIdx maps invocation key -> kbRecs
	// index.
	kbIdx        *tagMap
	kbRecs       []kbRec
	kbFree       []int32
	kbNextInv    uint64
	kbPeakPerInv int

	// ready is a deque (head index + compaction) so leftover refs from a
	// budget-limited cycle carry over without reallocating; nextReady and
	// the double-buffered outbox recycle their backing arrays.
	ready       []fireRef
	readyHead   int
	nextReady   []fireRef
	outbox      []token
	outboxSpare []token

	// delayed holds load results completing in future cycles when
	// Config.LoadLatency > 1, bucketed by absolute due cycle.
	delayed cq.Queue[token]

	live       int64
	perTagLive *tagMap // nil unless Sanitize

	// Per-block live-token accounting: which concurrent block's
	// instructions are holding the state (tokens attribute to their
	// destination node's block). Guides per-region tag tuning.
	liveByBlock []int64
	peakByBlock []int64

	// Token-store occupancy (the paper's Problem #2): peak number of
	// waiting instances per static instruction — the associative-match
	// capacity a hardware token store would need.
	storePeak []int32

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

	// fireVals is the operand scratch for fire(): values are copied out
	// of the store slot before the instance is deleted, since deletion
	// may shift other slots over it.
	fireVals []int64

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

// newMachine derives the per-node firing metadata from the graph and the
// memory image's region layout (constant prefills, presence-bitset widths,
// tail-recursion reserves, region indices) and builds the machine's
// mutable state around it.
func newMachine(g *dfg.Graph, im *mem.Image, cfg Config) (*machine, error) {
	memIdx := make([]int, len(g.MemNames)) // graph region -> image region
	for i, name := range g.MemNames {
		idx, ok := im.Index(name)
		if !ok {
			return nil, fmt.Errorf("core: memory image missing region %q", name)
		}
		memIdx[i] = idx
	}
	info := make([]nodeInfo, len(g.Nodes))
	maxIn := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		ni := &info[i]
		ni.constVals = make([]int64, n.NIn)
		ni.words = (n.NIn + 63) / 64
		for port := 0; port < n.NIn; port++ {
			if n.ConstIn[port].Valid {
				ni.constVals[port] = n.ConstIn[port].V
			} else {
				ni.needInit++
			}
		}
		switch n.Op {
		case dfg.OpAllocate:
			if n.External && g.Blocks[n.Space].TailRecursive {
				ni.reserve = 1
			}
		case dfg.OpLoad, dfg.OpStore:
			ni.memIdx = memIdx[n.Region]
		}
		if n.NIn > maxIn {
			maxIn = n.NIn
		}
	}

	m := &machine{
		g:       g,
		im:      im,
		cfg:     cfg,
		info:    info,
		stores:  make([]waitStore, len(g.Nodes)),
		ipcHist: make([]int64, cfg.IssueWidth+1),
	}
	m.storePeak = make([]int32, len(g.Nodes))
	m.liveByBlock = make([]int64, len(g.Blocks))
	m.peakByBlock = make([]int64, len(g.Blocks))
	if cfg.Sanitize {
		m.perTagLive = newTagMap()
		m.san = newSanitizer()
	}
	m.liveTrace = metrics.NewLiveTrace(cfg.TracePoints)
	m.rec = cfg.Tracer

	m.fireVals = make([]int64, maxIn)

	nspaces := len(g.Blocks)
	m.inUse = make([]int, nspaces)
	m.peakInUse = make([]int, nspaces)
	m.allocCount = make([]int64, nspaces)
	m.pending = make([][]fireRef, nspaces)
	m.spacePooled = make([]bool, nspaces)
	// Unpooled tags must never collide with pooled encodings
	// (space<<32 | idx), so the counter lives far above them.
	m.globalNext = 1 << 48

	switch cfg.Policy {
	case PolicyTyr, PolicyLocalNoGate:
		for s := range g.Blocks {
			m.spacePooled[s] = true
		}
	case PolicyKBound:
		// TTDA-style: only leaf loops are bounded — blocks that are
		// tail-recursive and spawn no other concurrent block (no
		// allocate inside them targets a different space).
		for s := range g.Blocks {
			m.spacePooled[s] = g.Blocks[s].TailRecursive
		}
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if n.Op == dfg.OpAllocate && n.Space != n.Block {
				m.spacePooled[n.Block] = false
			}
		}
		m.kbIdx = newTagMap()
	case PolicyGlobalBounded:
		m.poolGlobal = make([]uint64, cfg.GlobalTags)
		for t := range m.poolGlobal {
			m.poolGlobal[t] = uint64(cfg.GlobalTags - 1 - t)
		}
	}

	m.spaceTags = make([]int, nspaces)
	m.poolLocal = make([][]uint64, nspaces)
	for s := range g.Blocks {
		if cfg.Policy == PolicyGlobalBounded {
			m.spaceTags[s] = cfg.GlobalTags
		} else if m.spacePooled[s] {
			m.spaceTags[s] = cfg.TagsPerBlock
			if override, ok := cfg.BlockTags[g.Blocks[s].Name]; ok {
				m.spaceTags[s] = override
			}
		}
		if !m.spacePooled[s] || cfg.Policy == PolicyKBound {
			continue
		}
		tags := m.spaceTags[s]
		pool := make([]uint64, tags)
		for t := range pool {
			// Reverse order so pops hand out tag 0 first.
			pool[t] = uint64(s)<<32 | uint64(tags-1-t)
		}
		m.poolLocal[s] = pool
	}

	// Under tyr and local-nogate a node's tokens carry tags of its block's
	// pool, space<<32 | i, so the pool index i names the waiting instance
	// directly. global-bounded's tags are dense too, but every node would
	// see the whole global pool's indices, so its stores hash.
	for i := range g.Nodes {
		ni := &info[i]
		blk := g.Nodes[i].Block
		var base, pool uint64
		if cfg.Policy == PolicyTyr || cfg.Policy == PolicyLocalNoGate {
			base, pool = uint64(blk)<<32, uint64(m.spaceTags[blk])
		}
		m.stores[i].init(g.Nodes[i].NIn, ni.words, ni.needInit, ni.constVals, base, pool)
	}
	return m, nil
}

// allocRoot takes the tag for the root context.
func (m *machine) allocRoot() (uint64, error) {
	tag, ok := m.popTag(0)
	if !ok {
		return 0, fmt.Errorf("core: no tag available for the root context")
	}
	if m.san != nil {
		m.san.held[tag] = 0
	}
	m.noteAlloc(0)
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindTagAlloc,
			Node: trace.NoNode, Block: 0, Tag: tag, Val: int64(m.inUse[0])})
	}
	return tag, nil
}

// popTag removes a tag destined for the given space from the appropriate
// pool. It does not update usage statistics.
//
//tyr:hotpath
func (m *machine) popTag(space dfg.BlockID) (uint64, bool) {
	switch {
	case m.cfg.Policy == PolicyGlobalBounded:
		if len(m.poolGlobal) == 0 {
			return 0, false
		}
		tag := m.poolGlobal[len(m.poolGlobal)-1]
		m.poolGlobal = m.poolGlobal[:len(m.poolGlobal)-1]
		return tag, true
	case m.spacePooled[space]:
		pool := m.poolLocal[space]
		if len(pool) == 0 {
			return 0, false
		}
		tag := pool[len(pool)-1]
		m.poolLocal[space] = pool[:len(pool)-1]
		return tag, true
	default:
		m.globalNext++
		return m.globalNext, true
	}
}

//tyr:hotpath
func (m *machine) avail(space dfg.BlockID) int {
	switch {
	case m.cfg.Policy == PolicyGlobalBounded:
		return len(m.poolGlobal)
	case m.spacePooled[space]:
		return len(m.poolLocal[space])
	default:
		return 1 << 30
	}
}

//tyr:hotpath
func (m *machine) noteAlloc(space dfg.BlockID) {
	m.inUse[space]++
	if m.inUse[space] > m.peakInUse[space] {
		m.peakInUse[space] = m.inUse[space]
	}
	m.allocCount[space]++
	m.totalInUse++
	if m.totalInUse > m.peakTags {
		m.peakTags = m.totalInUse
	}
}

// kbAcquire hands out a (possibly recycled) invocation record index.
//
//tyr:hotpath
func (m *machine) kbAcquire() int32 {
	if n := len(m.kbFree); n > 0 {
		ri := m.kbFree[n-1]
		m.kbFree = m.kbFree[:n-1]
		return ri
	}
	m.kbRecs = append(m.kbRecs, kbRec{})
	return int32(len(m.kbRecs) - 1)
}

// kbRelease retires an invocation record, keeping its slice capacity.
//
//tyr:hotpath
func (m *machine) kbRelease(ri int32) {
	rec := &m.kbRecs[ri]
	rec.pool = rec.pool[:0]
	rec.pending = rec.pending[:0]
	rec.out = 0
	m.kbFree = append(m.kbFree, ri)
}

// kbFor resolves the invocation record for a k-bound key, materializing an
// empty record for unknown keys (a free or request against a reclaimed
// invocation — broken programs reach this; the record then behaves like
// the seed's zero-valued map entries).
//
//tyr:hotpath
func (m *machine) kbFor(key uint64) *kbRec {
	ri, ok := m.kbIdx.get(key)
	if !ok {
		ri = int64(m.kbAcquire())
		m.kbIdx.put(key, ri)
	}
	return &m.kbRecs[ri]
}

// freeTag returns a tag to its pool and wakes starved allocates.
//
//tyr:hotpath
func (m *machine) freeTag(space dfg.BlockID, tag uint64) {
	m.inUse[space]--
	m.totalInUse--
	switch {
	case m.cfg.Policy == PolicyGlobalBounded:
		m.poolGlobal = append(m.poolGlobal, tag)
		m.wake(0)
	case m.cfg.Policy == PolicyKBound && m.spacePooled[space]:
		key := tag >> kbInvShift
		ri, ok := m.kbIdx.get(key)
		if !ok {
			ri = int64(m.kbAcquire())
			m.kbIdx.put(key, ri)
		}
		rec := &m.kbRecs[ri]
		rec.out--
		if rec.out == 0 {
			// Last tag of the invocation retired; reclaim its block.
			m.kbIdx.del(key)
			m.kbRelease(int32(ri))
			return
		}
		rec.pool = append(rec.pool, tag)
		if len(rec.pending) > 0 {
			m.wakeRefs(rec.pending)
			rec.pending = rec.pending[:0]
		}
	case m.spacePooled[space]:
		m.poolLocal[space] = append(m.poolLocal[space], tag)
		m.wake(space)
	default:
		// Unpooled tags are never reused.
	}
}

// wake moves a space's starved allocates back into the ready flow.
//
//tyr:hotpath
func (m *machine) wake(pendingIdx dfg.BlockID) {
	refs := m.pending[pendingIdx]
	if len(refs) == 0 {
		return
	}
	m.pending[pendingIdx] = refs[:0]
	m.wakeRefs(refs)
}

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
		m.nextReady = append(m.nextReady, ref)
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindWake,
				Node: int32(ref.node), Block: int32(m.g.Nodes[ref.node].Space), Tag: ref.tag})
		}
	}
}

//tyr:hotpath
func (m *machine) pendingIndex(space dfg.BlockID) dfg.BlockID {
	if m.cfg.Policy == PolicyGlobalBounded {
		return 0
	}
	return space
}

// emit queues a produced token for delivery at the start of the next cycle.
// src is the producing node, dfg.InvalidNode for entry injections.
//
//tyr:hotpath
func (m *machine) emit(src dfg.NodeID, to dfg.Port, tag uint64, val int64) {
	// Fill the token in place: building it as a literal and copying it in
	// stalls on store forwarding.
	m.outbox = append(m.outbox, token{})
	t := &m.outbox[len(m.outbox)-1]
	t.tag, t.val, t.node, t.in, t.src = tag, val, to.Node, int32(to.In), src
	m.live++
	blk := m.g.Nodes[to.Node].Block
	m.liveByBlock[blk]++
	if m.liveByBlock[blk] > m.peakByBlock[blk] {
		m.peakByBlock[blk] = m.liveByBlock[blk]
	}
	if m.perTagLive != nil {
		m.perTagLive.add(tag, 1)
	}
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindEmit,
			Node: int32(to.Node), Src: int32(src), Block: int32(blk),
			Port: int16(to.In), Tag: tag, Val: val})
	}
}

// emitAll fans a value out to every destination of an output port.
//
//tyr:hotpath
func (m *machine) emitAll(n *dfg.Node, out int, tag uint64, val int64) {
	cross := out == dfg.CTDataOut && (n.Op == dfg.OpChangeTag || n.Op == dfg.OpChangeTagDyn)
	for _, d := range n.Outs[out] {
		m.emit(n.ID, d, tag, val)
		if cross {
			m.crossTokens++
		} else {
			m.frameTokens++
		}
	}
}

// memLatency resolves the latency of one memory access: the attached
// hierarchy model when configured, else the fixed LoadLatency for loads
// (stores complete in a cycle on the ideal flat memory, as in the seed).
//
//tyr:hotpath
func (m *machine) memLatency(kind mem.AccessKind, nid dfg.NodeID, addr int64) int64 {
	if m.cfg.Memory != nil {
		return m.cfg.Memory.Access(m.cycle, kind, m.info[nid].memIdx, addr)
	}
	if kind == mem.AccessLoad {
		return int64(m.cfg.LoadLatency)
	}
	return 1
}

// emitAllDelayed fans a value out to every destination of an output port,
// with delivery deferred to the due cycle (the multi-cycle memory path).
// The tokens count as live from emission, like their prompt counterparts.
//
//tyr:hotpath
func (m *machine) emitAllDelayed(n *dfg.Node, out int, tag uint64, val int64, due int64) {
	for _, d := range n.Outs[out] {
		m.delayed.Push(due, token{tag: tag, val: val, node: d.Node, in: int32(d.In), src: n.ID})
		m.live++
		blk := m.g.Nodes[d.Node].Block
		m.liveByBlock[blk]++
		if m.liveByBlock[blk] > m.peakByBlock[blk] {
			m.peakByBlock[blk] = m.liveByBlock[blk]
		}
		if m.perTagLive != nil {
			m.perTagLive.add(tag, 1)
		}
	}
}

//tyr:hotpath
func (m *machine) consumeOne(blk dfg.BlockID, tag uint64) {
	m.live--
	m.liveByBlock[blk]--
	if m.perTagLive != nil {
		if m.perTagLive.add(tag, -1) == 0 {
			m.perTagLive.del(tag)
		}
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
	n := &m.g.Nodes[nid]
	ws := &m.stores[nid]
	slot := ws.lookup(t.tag)
	if slot < 0 {
		slot = ws.insert(t.tag)
		if slot < 0 {
			// A pooled store has no slot for a tag from outside its
			// block's pool, which no allocate of the block handed out.
			return fmt.Errorf("core: token for %s %q carries tag %#x, outside block %q's pool of %d tags",
				n.Op, n.Label, t.tag, m.g.Blocks[n.Block].Name, m.spaceTags[n.Block])
		}
		if occ := int32(ws.len()); occ > m.storePeak[nid] {
			m.storePeak[nid] = occ
		}
	}
	if ws.has(slot, port) {
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
	if n.ConstIn[port].Valid {
		return fmt.Errorf("core: token delivered to const-bound port %d of %q", port, n.Label)
	}
	ws.set(slot, port)
	ws.valSlice(slot)[port] = t.val
	ws.need[slot]--
	if m.rec != nil {
		kind := trace.KindDeliver
		if n.Op == dfg.OpJoin {
			kind = trace.KindJoinArrive
		}
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: kind,
			Node: int32(nid), Src: int32(t.src), Block: int32(n.Block),
			Port: int16(port), Tag: t.tag, Val: t.val})
	}

	if n.Op == dfg.OpAllocate {
		return m.deliverAllocate(nid, t.tag, slot)
	}
	if ws.need[slot] == 0 && !ws.queued(slot) {
		ws.setFlag(slot, wsQueued)
		m.nextReady = append(m.nextReady, fireRef{node: nid, tag: t.tag})
	}
	return nil
}

// deliverAllocate handles allocate's special firing rule on token arrival.
//
//tyr:hotpath
func (m *machine) deliverAllocate(nid dfg.NodeID, tag uint64, slot int32) error {
	n := &m.g.Nodes[nid]
	ws := &m.stores[nid]
	if ws.popped(slot) {
		// Tag already handed out; the ready token completes the
		// instruction and releases the control output for the barrier.
		if ws.has(slot, allocReadyPort) {
			m.emitAll(n, dfg.AllocCtrlOut, tag, 0)
			m.consumeOne(n.Block, tag)
			ws.delSlot(slot)
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
		m.nextReady = append(m.nextReady, fireRef{node: nid, tag: tag})
	}
	return nil
}

// fire executes one ready instance. It reports whether an issue slot was
// consumed (a starved allocate parks instead).
//
//tyr:hotpath
func (m *machine) fire(ref fireRef) (bool, error) {
	n := &m.g.Nodes[ref.node]
	ws := &m.stores[ref.node]
	slot := ws.lookup(ref.tag)
	if slot < 0 {
		return false, fmt.Errorf("core: fire of missing instance %q tag %#x", n.Label, ref.tag)
	}
	ws.clearFlag(slot, wsQueued)

	if n.Op == dfg.OpAllocate {
		return m.fireAllocate(ref, n, slot)
	}

	// Copy the operand set out of the store (deleting the instance may
	// shift other slots over it), then consume and retire it.
	v := m.fireVals[:ws.nIn]
	copy(v, ws.valSlice(slot))
	consumed := int(m.info[ref.node].needInit)
	for i := 0; i < consumed; i++ {
		m.consumeOne(n.Block, ref.tag)
	}
	ws.delSlot(slot)
	m.fired++
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindFire,
			Node: int32(ref.node), Block: int32(n.Block), Tag: ref.tag})
	}

	switch n.Op {
	case dfg.OpBin:
		out, err := dfg.EvalBin(n.Bin, v[0], v[1])
		if err != nil {
			return true, fmt.Errorf("core: %q: %w", n.Label, err)
		}
		m.emitAll(n, 0, ref.tag, out)
	case dfg.OpSelect:
		out := v[2]
		if v[0] != 0 {
			out = v[1]
		}
		m.emitAll(n, 0, ref.tag, out)
	case dfg.OpLoad:
		val, err := m.im.Load(m.info[ref.node].memIdx, v[0])
		if err != nil {
			return true, fmt.Errorf("core: %q: %w", n.Label, err)
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindMemLoad,
				Node: int32(ref.node), Block: int32(n.Block), Tag: ref.tag, Val: v[0]})
		}
		if lat := m.memLatency(mem.AccessLoad, ref.node, v[0]); lat > 1 {
			// The value returns after the memory latency; barrier and
			// ordering consumers wait along with everyone else.
			m.emitAllDelayed(n, dfg.LoadValOut, ref.tag, val, m.cycle+lat)
		} else {
			m.emitAll(n, dfg.LoadValOut, ref.tag, val)
		}
	case dfg.OpStore:
		if err := m.im.Store(m.info[ref.node].memIdx, v[0], v[1]); err != nil {
			return true, fmt.Errorf("core: %q: %w", n.Label, err)
		}
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindMemStore,
				Node: int32(ref.node), Block: int32(n.Block), Tag: ref.tag, Val: v[0]})
		}
		// The word is written at fire time (the model shapes time, not
		// values); only the completion token waits out the access latency.
		if lat := m.memLatency(mem.AccessStore, ref.node, v[0]); lat > 1 {
			m.emitAllDelayed(n, dfg.StoreCtrlOut, ref.tag, 0, m.cycle+lat)
		} else {
			m.emitAll(n, dfg.StoreCtrlOut, ref.tag, 0)
		}
	case dfg.OpSteer:
		out := dfg.SteerFalseOut
		if v[0] != 0 {
			out = dfg.SteerTrueOut
		}
		m.emitAll(n, out, ref.tag, v[1])
		m.emitAll(n, dfg.SteerCtrlOut, ref.tag, 0)
	case dfg.OpJoin, dfg.OpForward:
		if ref.node == m.g.Result {
			m.resultVal = v[0]
		}
		m.emitAll(n, 0, ref.tag, v[0])
	case dfg.OpGate:
		m.emitAll(n, 0, ref.tag, v[1])
	case dfg.OpExtractTag:
		m.emitAll(n, 0, ref.tag, int64(ref.tag))
	case dfg.OpChangeTag:
		newTag := uint64(v[0])
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindChangeTag,
				Node: int32(ref.node), Block: int32(n.Block), Tag: ref.tag, Val: int64(newTag)})
		}
		m.emitAll(n, dfg.CTDataOut, newTag, v[1])
		m.emitAll(n, dfg.CTCtrlOut, ref.tag, 0)
	case dfg.OpChangeTagDyn:
		newTag := uint64(v[0])
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindChangeTag,
				Node: int32(ref.node), Block: int32(n.Block), Tag: ref.tag, Val: int64(newTag)})
		}
		m.emit(n.ID, dfg.DecodePort(v[2]), newTag, v[1])
		m.crossTokens++
		m.emitAll(n, dfg.CTCtrlOut, ref.tag, 0)
	case dfg.OpFree:
		if m.san != nil {
			if err := m.san.checkFree(m, n, ref.tag); err != nil {
				return true, err
			}
		}
		m.freeTag(n.Space, ref.tag)
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindTagFree,
				Node: int32(ref.node), Block: int32(n.Space), Tag: ref.tag,
				Val: int64(m.inUse[n.Space])})
		}
		if ref.node == m.g.RootFree {
			m.done = true
		}
	default:
		return true, fmt.Errorf("core: op %s not executable on the tagged machine", n.Op)
	}
	return true, nil
}

// fireAllocate attempts to pop a tag for a requesting context, applying the
// policy's forward-progress rules.
//
//tyr:hotpath
func (m *machine) fireAllocate(ref fireRef, n *dfg.Node, slot int32) (bool, error) {
	if m.cfg.Policy == PolicyKBound && m.spacePooled[n.Space] {
		return m.fireAllocateKBound(ref, n, slot)
	}
	ws := &m.stores[ref.node]
	ready := ws.has(slot, allocReadyPort)
	canPop := false
	switch m.cfg.Policy {
	case PolicyTyr:
		// The paper's forward-progress rule: pop freely above the
		// reserve+1 line; pop the last usable tag only for a ready
		// context; external allocates into tail-recursive blocks keep
		// one tag back for the backedge.
		r := m.info[ref.node].reserve
		a := m.avail(n.Space)
		canPop = a > r+1 || (ready && a > r)
	case PolicyGlobalBounded, PolicyLocalNoGate:
		// No protocol at all: pop whenever a tag exists. This is the
		// naive bounding that deadlocks (Fig. 11 / Sec. VIII).
		canPop = m.avail(n.Space) > 0
	default:
		canPop = true
	}
	if !canPop {
		ws.setFlag(slot, wsParked)
		idx := m.pendingIndex(n.Space)
		m.pending[idx] = append(m.pending[idx], ref)
		if m.rec != nil {
			m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindPark,
				Node: int32(ref.node), Block: int32(n.Space), Tag: ref.tag,
				Val: int64(m.avail(n.Space))})
		}
		return false, nil
	}
	tag, _ := m.popTag(n.Space)
	m.grantAllocate(ref, n, slot, tag)
	return true, nil
}

// grantAllocate completes an allocate firing once a tag has been chosen.
//
//tyr:hotpath
func (m *machine) grantAllocate(ref fireRef, n *dfg.Node, slot int32, tag uint64) {
	ws := &m.stores[ref.node]
	if m.san != nil {
		m.san.held[tag] = n.Space
	}
	m.noteAlloc(n.Space)
	m.fired++
	if m.rec != nil {
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindFire,
			Node: int32(ref.node), Block: int32(n.Block), Tag: ref.tag})
		m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindTagAlloc,
			Node: int32(ref.node), Block: int32(n.Space), Tag: tag,
			Val: int64(m.inUse[n.Space])})
	}
	m.emitAll(n, dfg.AllocTagOut, ref.tag, int64(tag))
	m.consumeOne(n.Block, ref.tag) // the request token
	ws.setFlag(slot, wsPopped)
	if ws.has(slot, allocReadyPort) {
		m.emitAll(n, dfg.AllocCtrlOut, ref.tag, 0)
		m.consumeOne(n.Block, ref.tag) // the ready token
		ws.delSlot(slot)
	}
}

// k-bound tag encoding: flag | space | invocation | index.
const (
	kbFlag     = uint64(1) << 63
	kbSpcShift = 48
	kbInvShift = 16
)

// fireAllocateKBound implements TTDA-style k-bounding: every external
// transfer point (loop invocation) receives a fresh block of k tags;
// backedge allocates rotate within their own invocation's block, waiting
// for iteration i+1-k to retire when the block is exhausted. Invocations
// themselves are unbounded — the reason k-bounding does not solve
// parallelism explosion in general.
//
//tyr:hotpath
func (m *machine) fireAllocateKBound(ref fireRef, n *dfg.Node, slot int32) (bool, error) {
	ws := &m.stores[ref.node]
	k := m.spaceTags[n.Space]
	var tag uint64
	if n.External {
		inv := m.kbNextInv
		m.kbNextInv++
		base := kbFlag | uint64(n.Space)<<kbSpcShift | inv<<kbInvShift
		key := base >> kbInvShift
		rec := m.kbFor(key)
		for t := k - 1; t >= 1; t-- {
			rec.pool = append(rec.pool, base|uint64(t))
		}
		rec.out = 1
		if m.kbPeakPerInv < 1 {
			m.kbPeakPerInv = 1
		}
		tag = base
	} else {
		key := ref.tag >> kbInvShift
		rec := m.kbFor(key)
		if len(rec.pool) == 0 {
			ws.setFlag(slot, wsParked)
			rec.pending = append(rec.pending, ref)
			if m.rec != nil {
				m.rec.Record(trace.Event{Cycle: m.cycle, Kind: trace.KindPark,
					Node: int32(ref.node), Block: int32(n.Space), Tag: ref.tag})
			}
			return false, nil
		}
		tag = rec.pool[len(rec.pool)-1]
		rec.pool = rec.pool[:len(rec.pool)-1]
		rec.out++
		if rec.out > m.kbPeakPerInv {
			m.kbPeakPerInv = rec.out
		}
	}
	m.grantAllocate(ref, n, slot, tag)
	return true, nil
}

// start allocates the root context and injects the entry tokens: the
// machine's state at cycle zero, before the first stepCycle.
func (m *machine) start() error {
	rootTag, err := m.allocRoot()
	if err != nil {
		return err
	}
	for _, inj := range m.g.Entries {
		m.emit(dfg.InvalidNode, inj.To, rootTag, inj.Val)
	}
	return nil
}

// stopErr is the error a cancelled run returns; split out so the loop's
// normal path carries no formatting.
func (m *machine) stopErr() error {
	return fmt.Errorf("core: run stopped at cycle %d: %w", m.cycle, cancel.ErrStopped)
}

// stepCycle advances the machine by exactly one simulated cycle: deliver
// last cycle's tokens, promote completions into the ready flow, and fire
// up to IssueWidth instances. It reports done=true when the machine has
// quiesced (nothing ready, nothing in flight) — the caller then calls
// finish. run owns the cancel poll at every cycle boundary, which keeps
// the step itself free of termination logic.
//
//tyr:hotpath
func (m *machine) stepCycle() (bool, error) {
	// Deliver last cycle's tokens; completions join the ready flow.
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
		m.ready = m.ready[:0]
		m.readyHead = 0
	}
	m.ready = append(m.ready, m.nextReady...)
	m.nextReady = m.nextReady[:0]

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

	budget := m.cfg.IssueWidth
	firedThisCycle := 0
	idx := m.readyHead
	for budget > 0 && idx < len(m.ready) {
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
	m.readyHead = idx
	if m.readyHead > 64 && m.readyHead*2 >= len(m.ready) {
		n := copy(m.ready, m.ready[m.readyHead:])
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
	if err := m.start(); err != nil {
		return Result{}, err
	}
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

func (m *machine) finish() (Result, error) {
	tr := m.liveTrace.CloseTicks(m.cycle, m.live)
	res := Result{
		Completed:               m.done,
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
			PeakInUse:      m.peakInUse[s],
			Allocs:         m.allocCount[s],
			PeakLiveTokens: m.peakByBlock[s],
		})
	}

	if m.done {
		if m.san != nil {
			if err := m.san.atCompletion(m); err != nil {
				return res, err
			}
		}
		return res, nil
	}

	// Not completed: report deadlock with the starved allocates.
	info := &DeadlockInfo{Cycle: m.cycle, LiveTokens: m.live}
	allPending := append([][]fireRef{}, m.pending...)
	for i := range m.kbRecs {
		allPending = append(allPending, m.kbRecs[i].pending)
	}
	starved := make(map[dfg.BlockID]int)
	for idx := range allPending {
		for _, ref := range allPending[idx] {
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
			InUse:   m.inUse[s],
			Starved: count,
		})
	}
	if m.live == 0 && len(info.PendingAllocs) == 0 {
		return res, fmt.Errorf("core: machine quiesced without completing (graph bug)")
	}
	res.Deadlocked = true
	res.Deadlock = info
	return res, nil
}
