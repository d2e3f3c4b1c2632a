package prog

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dfg"
	"repro/internal/mem"
)

// InstrClass categorizes dynamic instructions for cost models.
type InstrClass uint8

const (
	ClassALU InstrClass = iota
	ClassSelect
	ClassLoad
	ClassStore
	ClassBranch
	ClassCall
)

func (c InstrClass) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassSelect:
		return "select"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassCall:
		return "call"
	}
	return "?"
}

// BoundaryKind categorizes the block boundaries reported to cost models.
// Loop iterations and call entries/returns are the paper's concurrent-block
// boundaries — the points where sequential-dataflow architectures advance
// their wave number.
type BoundaryKind uint8

const (
	BoundaryLoopEnter BoundaryKind = iota
	BoundaryLoopIter
	BoundaryLoopExit
	BoundaryCallEnter
	BoundaryCallExit
)

// CostModel observes the dynamic execution of the reference interpreter.
// Instr is called once per dynamic instruction with the latest ready time
// among its operands, the controlling branch decision and, for an access
// in an ordering class, the class's previous access; it returns the ready
// time of the result. One ready time suffices because a dataflow firing
// rule waits for the last operand, and it keeps the call free of a
// per-instruction slice. Boundary is called at concurrent-block
// boundaries with the number of live variable bindings. Implementations
// provide the von Neumann and sequential-dataflow timing models
// (internal/vn, internal/seqdf).
type CostModel interface {
	Instr(class InstrClass, ready int64) int64
	Boundary(kind BoundaryKind, live int)
}

// MemModel is an optional CostModel extension. A cost model implementing
// it also receives the (region, word address) of every load and store,
// immediately before the corresponding Instr call, so memory-hierarchy
// timing models can charge address-dependent latencies (internal/vn and
// internal/seqdf use this to route accesses through internal/cache).
type MemModel interface {
	Mem(kind mem.AccessKind, region int, addr int64)
}

// nopModel is used when no cost model is attached.
type nopModel struct{}

func (nopModel) Instr(InstrClass, int64) int64 { return 0 }
func (nopModel) Boundary(BoundaryKind, int)    {}

// Stats aggregates dynamic execution counts.
type Stats struct {
	DynInstrs int64
	ALU       int64
	Selects   int64
	Loads     int64
	Stores    int64
	Branches  int64
	Calls     int64
	LoopIters int64

	MaxLiveVars  int
	MaxCallDepth int
}

// RunConfig parameterizes one interpreter run.
type RunConfig struct {
	Args     []int64   // entry function arguments
	MaxSteps int64     // dynamic instruction budget; 0 means a large default
	Model    CostModel // optional cost model
	// Stop, when non-nil, is polled at every dynamic instruction (the
	// interpreter's cycle boundary); once stopped the run returns
	// cancel.ErrStopped promptly. Nil changes nothing.
	Stop *cancel.Flag
}

// Result reports the outcome of a run.
type Result struct {
	Ret   int64
	Stats Stats
}

// DefaultImage builds a memory image with the program's declared regions at
// their default sizes.
func DefaultImage(p *Program) *mem.Image {
	im := mem.NewImage()
	for _, m := range p.Mems {
		im.AddRegion(m.Name, m.Size)
	}
	return im
}

const defaultMaxSteps = int64(1) << 40

// Run interprets the program against the given memory image (mutated in
// place), returning the entry function's result and execution statistics.
// The program must have passed Check. Run resolves the program's names
// once (see resolve.go) and then evaluates the resolved form.
func Run(p *Program, im *mem.Image, cfg RunConfig) (Result, error) {
	entry := p.EntryFunc()
	if entry == nil {
		return Result{}, fmt.Errorf("prog: %s: missing entry %q", p.Name, p.Entry)
	}
	if len(cfg.Args) != len(entry.Params) {
		return Result{}, fmt.Errorf("prog: %s: entry %q takes %d args, got %d",
			p.Name, p.Entry, len(entry.Params), len(cfg.Args))
	}
	rentry, classes, err := resolve(p, im)
	if err != nil {
		return Result{}, err
	}
	it := &interp{
		p:          p,
		im:         im,
		cm:         cfg.Model,
		maxSteps:   cfg.MaxSteps,
		stop:       cfg.Stop,
		stack:      make([]binding, len(cfg.Args)+rentry.nslots),
		sp:         len(cfg.Args),
		classReady: make([]int64, classes),
	}
	if it.cm == nil {
		it.cm = nopModel{}
	}
	it.mm, _ = it.cm.(MemModel)
	if it.maxSteps == 0 {
		it.maxSteps = defaultMaxSteps
	}
	for i, v := range cfg.Args {
		it.stack[i] = binding{val: v}
	}
	ret, _, err := it.callFunc(rentry, 0, 0)
	if err != nil {
		return Result{Stats: it.stats}, err
	}
	return Result{Ret: ret, Stats: it.stats}, nil
}

type binding struct {
	val   int64
	ready int64
}

type interp struct {
	p        *Program
	im       *mem.Image
	cm       CostModel
	mm       MemModel // non-nil when cm also implements MemModel
	maxSteps int64
	stop     *cancel.Flag
	stats    Stats

	// stack holds the bindings of every active frame; the running
	// function's frame is stack[fp:sp], and a call's frame starts at sp.
	stack  []binding
	fp, sp int

	// liveVars counts the live variable bindings of all active scopes,
	// as each scope's distinct declared names.
	liveVars int
	depth    int
	// firstIter is set while the innermost running loop is in its first
	// iteration.
	firstIter bool

	// classReady tracks the ready time of each memory ordering class's
	// token (classes serialize all of their accesses).
	classReady []int64

	// ctrl is the ready time of the controlling branch decision; every
	// instruction's result is at least this late (steer dependence).
	ctrl int64
}

func (it *interp) runErr(format string, args ...interface{}) error {
	return fmt.Errorf("prog: %s: %s", it.p.Name, fmt.Sprintf(format, args...))
}

// count charges one dynamic instruction, enforces the step budget, and
// polls the cancel flag — the interpreter's per-instruction cycle
// boundary (vN and seqdf delegate their cancellation to this poll).
//
//tyr:cycleloop
//tyr:hotpath
func (it *interp) count(class InstrClass) error {
	it.stats.DynInstrs++
	switch class {
	case ClassALU:
		it.stats.ALU++
	case ClassSelect:
		it.stats.Selects++
	case ClassLoad:
		it.stats.Loads++
	case ClassStore:
		it.stats.Stores++
	case ClassBranch:
		it.stats.Branches++
	case ClassCall:
		it.stats.Calls++
	}
	if it.stats.DynInstrs > it.maxSteps {
		return it.runErr("exceeded dynamic instruction budget %d (runaway loop?)", it.maxSteps)
	}
	if it.stop.Stopped() {
		return fmt.Errorf("prog: %s: run stopped after %d instructions: %w",
			it.p.Name, it.stats.DynInstrs, cancel.ErrStopped)
	}
	return nil
}

// addLive adds n live bindings. MaxLiveVars is sampled only when a binding
// is added, so a scope that binds nothing samples nothing, even one call
// deeper.
//
//tyr:hotpath
func (it *interp) addLive(n int) {
	if n == 0 {
		return
	}
	it.liveVars += n
	if it.liveVars+it.depth > it.stats.MaxLiveVars {
		it.stats.MaxLiveVars = it.liveVars + it.depth
	}
}

// declared counts a declaration that just ran as a new live binding. One
// directly in a loop body runs every iteration but binds its name once
// per loop instance, so it counts in the first iteration only.
//
//tyr:hotpath
func (it *interp) declared(loopBody bool) {
	if !loopBody || it.firstIter {
		it.addLive(1)
	}
}

// growStack extends the binding stack to at least n bindings. It runs
// only when a call goes deeper than any before it in the run.
func (it *interp) growStack(n int) {
	s := make([]binding, max(n, 2*len(it.stack)))
	copy(s, it.stack)
	it.stack = s
}

// callFunc runs f with its arguments at stack[args:args+f.nparams].
//
//tyr:hotpath
func (it *interp) callFunc(f *rfunc, args int, callReady int64) (int64, int64, error) {
	it.depth++
	if it.depth > it.stats.MaxCallDepth {
		it.stats.MaxCallDepth = it.depth
	}
	base := it.sp
	if base+f.nslots > len(it.stack) {
		it.growStack(base + f.nslots)
	}
	for i := 0; i < f.nparams; i++ {
		b := it.stack[args+i]
		if b.ready < callReady {
			b.ready = callReady
		}
		it.stack[base+i] = b
	}
	savedFP, savedSP, savedLive, savedCtrl := it.fp, it.sp, it.liveVars, it.ctrl
	it.fp, it.sp = base, base+f.nslots
	it.addLive(f.nparams)
	if callReady > it.ctrl {
		it.ctrl = callReady
	}
	it.cm.Boundary(BoundaryCallEnter, it.liveVars)

	if err := it.stmts(f.body); err != nil {
		return 0, 0, err
	}
	var ret, ready int64
	if f.ret != nil {
		v, r, err := it.expr(f.ret)
		if err != nil {
			return 0, 0, err
		}
		ret, ready = v, r
	}
	it.cm.Boundary(BoundaryCallExit, it.liveVars)
	it.fp, it.sp, it.liveVars, it.ctrl = savedFP, savedSP, savedLive, savedCtrl
	it.depth--
	return ret, ready, nil
}

//tyr:hotpath
func (it *interp) stmts(stmts []rstmt) error {
	for _, s := range stmts {
		if err := it.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

//tyr:hotpath
func (it *interp) stmt(s rstmt) error {
	switch st := s.(type) {
	case *rAssign:
		v, r, err := it.expr(st.e)
		if err != nil {
			return err
		}
		it.stack[it.fp+st.slot] = binding{val: v, ready: r}
		return nil
	case *rLet:
		v, r, err := it.expr(st.e)
		if err != nil {
			return err
		}
		it.stack[it.fp+st.slot] = binding{val: v, ready: r}
		it.declared(st.loopBody)
		return nil
	case *rStore:
		addr, ra, err := it.expr(st.addr)
		if err != nil {
			return err
		}
		val, rv, err := it.expr(st.val)
		if err != nil {
			return err
		}
		if err := it.count(ClassStore); err != nil {
			return err
		}
		if st.region < 0 {
			return it.runErr("store to unknown region %q", st.mem)
		}
		if it.mm != nil {
			it.mm.Mem(mem.AccessStore, st.region, addr)
		}
		ready := max(ra, rv, it.ctrl)
		if st.class >= 0 {
			ready = max(ready, it.classReady[st.class])
		}
		done := it.cm.Instr(ClassStore, ready)
		if st.class >= 0 {
			it.classReady[st.class] = done
		}
		return it.im.Store(st.region, addr, val)
	case *rIf:
		return it.ifStmt(st)
	case *rWhile:
		return it.while(st)
	case *rExprStmt:
		_, _, err := it.expr(st.e)
		return err
	}
	return it.runErr("unknown statement %T", s)
}

//tyr:hotpath
func (it *interp) ifStmt(st *rIf) error {
	c, rc, err := it.expr(st.cond)
	if err != nil {
		return err
	}
	if err := it.count(ClassBranch); err != nil {
		return err
	}
	steered := it.cm.Instr(ClassBranch, max(rc, it.ctrl))
	savedCtrl, savedLive := it.ctrl, it.liveVars
	if steered > it.ctrl {
		it.ctrl = steered
	}
	if c != 0 {
		err = it.stmts(st.then)
	} else {
		err = it.stmts(st.els)
	}
	it.ctrl, it.liveVars = savedCtrl, savedLive
	return err
}

//tyr:hotpath
func (it *interp) while(st *rWhile) error {
	for i, init := range st.inits {
		v, r, err := it.expr(init)
		if err != nil {
			return err
		}
		it.stack[it.fp+st.vars+i] = binding{val: v, ready: r}
	}
	savedLive, savedFirst, savedCtrl := it.liveVars, it.firstIter, it.ctrl
	it.addLive(len(st.inits))
	it.cm.Boundary(BoundaryLoopEnter, it.liveVars)
	it.firstIter = true
	for {
		c, rc, err := it.expr(st.cond)
		if err != nil {
			return err
		}
		if err := it.count(ClassBranch); err != nil {
			return err
		}
		steered := it.cm.Instr(ClassBranch, max(rc, it.ctrl))
		if steered > it.ctrl {
			it.ctrl = steered
		}
		if c == 0 {
			break
		}
		it.stats.LoopIters++
		if err := it.stmts(st.body); err != nil {
			return err
		}
		it.firstIter = false
		it.cm.Boundary(BoundaryLoopIter, it.liveVars)
	}
	it.cm.Boundary(BoundaryLoopExit, it.liveVars)
	it.liveVars, it.firstIter, it.ctrl = savedLive, savedFirst, savedCtrl
	for _, m := range st.out {
		it.stack[it.fp+m.to] = it.stack[it.fp+m.from]
		if m.fresh {
			it.declared(m.loopBody)
		}
	}
	return nil
}

//tyr:hotpath
func (it *interp) expr(e rexpr) (int64, int64, error) {
	switch ex := e.(type) {
	case *rVar:
		b := it.stack[it.fp+ex.slot]
		return b.val, max(b.ready, it.ctrl), nil
	case *rConst:
		return ex.v, it.ctrl, nil
	case *rBin:
		a, ra, err := it.expr(ex.a)
		if err != nil {
			return 0, 0, err
		}
		b, rb, err := it.expr(ex.b)
		if err != nil {
			return 0, 0, err
		}
		if err := it.count(ClassALU); err != nil {
			return 0, 0, err
		}
		v, err := dfg.EvalBin(ex.op, a, b)
		if err != nil {
			return 0, 0, err
		}
		return v, it.cm.Instr(ClassALU, max(ra, rb, it.ctrl)), nil
	case *rLoad:
		addr, ra, err := it.expr(ex.addr)
		if err != nil {
			return 0, 0, err
		}
		if err := it.count(ClassLoad); err != nil {
			return 0, 0, err
		}
		if ex.region < 0 {
			return 0, 0, it.runErr("load from unknown region %q", ex.mem)
		}
		if it.mm != nil {
			it.mm.Mem(mem.AccessLoad, ex.region, addr)
		}
		ready := max(ra, it.ctrl)
		if ex.class >= 0 {
			ready = max(ready, it.classReady[ex.class])
		}
		done := it.cm.Instr(ClassLoad, ready)
		if ex.class >= 0 {
			it.classReady[ex.class] = done
		}
		v, err := it.im.Load(ex.region, addr)
		if err != nil {
			return 0, 0, err
		}
		return v, done, nil
	case *rSelect:
		c, rc, err := it.expr(ex.cond)
		if err != nil {
			return 0, 0, err
		}
		t, rt, err := it.expr(ex.then)
		if err != nil {
			return 0, 0, err
		}
		f, rf, err := it.expr(ex.els)
		if err != nil {
			return 0, 0, err
		}
		if err := it.count(ClassSelect); err != nil {
			return 0, 0, err
		}
		v := f
		if c != 0 {
			v = t
		}
		return v, it.cm.Instr(ClassSelect, max(rc, rt, rf, it.ctrl)), nil
	case *rCall:
		ready := it.ctrl
		for i, a := range ex.args {
			v, r, err := it.expr(a)
			if err != nil {
				return 0, 0, err
			}
			it.stack[it.fp+ex.tmp+i] = binding{val: v, ready: r}
			ready = max(ready, r)
		}
		if err := it.count(ClassCall); err != nil {
			return 0, 0, err
		}
		return it.callFunc(ex.fn, it.fp+ex.tmp, it.cm.Instr(ClassCall, ready))
	}
	return 0, 0, it.runErr("unknown expression %T", e)
}
