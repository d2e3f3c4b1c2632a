package prog

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/mem"
)

// Run resolves a program before evaluating it: every name is bound to an
// index once per run, so evaluation does no map lookup, string compare or
// allocation per dynamic instruction. The resolved form mirrors the AST.
// Variables become frame slots by the checker's lexical rules, memory
// regions their index in the run's image, ordering classes a dense index
// into the run's class ready times, and callees their resolved function.
// It belongs to the run that built it; the *Program is only read, so
// concurrent runs may share one.

// rfunc is a resolved function. Its frame holds nslots bindings: the
// parameters first, then one slot per other declaration (let, loop-carried
// variable, fresh merge-out) and one per call argument.
type rfunc struct {
	nparams int
	nslots  int
	body    []rstmt
	ret     rexpr // nil: the function returns 0
}

// rexpr is a resolved expression.
type rexpr interface{ rexprNode() }

type (
	rConst struct{ v int64 }
	rVar   struct{ slot int }
	rBin   struct {
		op   dfg.BinKind
		a, b rexpr
	}
	rSelect struct{ cond, then, els rexpr }
	rLoad   struct {
		addr   rexpr
		region int // index in the image; -1 when the image lacks it
		class  int // ordering class; -1 for none
		mem    string
	}
	rCall struct {
		fn   *rfunc
		args []rexpr
		// tmp is the first of len(args) caller slots the arguments are
		// evaluated into, so a call nested in a later argument cannot
		// overwrite an earlier one.
		tmp int
	}
)

func (*rConst) rexprNode()  {}
func (*rVar) rexprNode()    {}
func (*rBin) rexprNode()    {}
func (*rSelect) rexprNode() {}
func (*rLoad) rexprNode()   {}
func (*rCall) rexprNode()   {}

// rstmt is a resolved statement.
type rstmt interface{ rstmtNode() }

type (
	rLet struct {
		slot     int
		loopBody bool // declared directly in a loop body
		e        rexpr
	}
	rAssign struct {
		slot int
		e    rexpr
	}
	rStore struct {
		addr, val rexpr
		region    int
		class     int
		mem       string
	}
	rIf struct {
		cond      rexpr
		then, els []rstmt
	}
	rWhile struct {
		inits []rexpr // evaluated in the enclosing scope
		vars  int     // slot of the first carried variable; the rest follow
		cond  rexpr
		body  []rstmt
		out   []mergeOut
	}
	rExprStmt struct{ e rexpr }
)

func (*rLet) rstmtNode()      {}
func (*rAssign) rstmtNode()   {}
func (*rStore) rstmtNode()    {}
func (*rIf) rstmtNode()       {}
func (*rWhile) rstmtNode()    {}
func (*rExprStmt) rstmtNode() {}

// mergeOut copies a carried variable's final binding out of its loop: to
// the enclosing binding of the same name, or to one it declares.
type mergeOut struct {
	from, to int
	fresh    bool // declares to
	loopBody bool // fresh, directly in a loop body
}

// resolve binds p, which must have passed Check, against the image im. It
// returns the resolved entry function and the number of ordering classes,
// which are numbered densely from 0.
func resolve(p *Program, im *mem.Image) (entry *rfunc, classes int, err error) {
	r := &resolver{
		p:       p,
		im:      im,
		funcs:   make(map[string]*rfunc, len(p.Funcs)),
		classes: make(map[string]int),
	}
	rfs := make([]*rfunc, len(p.Funcs))
	for i, f := range p.Funcs {
		rfs[i] = &rfunc{nparams: len(f.Params)}
		if _, dup := r.funcs[f.Name]; !dup {
			r.funcs[f.Name] = rfs[i]
		}
	}
	for i, f := range p.Funcs {
		r.function(f, rfs[i])
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return r.funcs[p.Entry], len(r.classes), nil
}

type resolver struct {
	p       *Program
	im      *mem.Image
	funcs   map[string]*rfunc
	classes map[string]int
	err     error

	// The function being resolved: its visible names, innermost last,
	// the scopes they open, and the slots handed out so far.
	vars   []rvar
	scopes []rscope
	nslots int
}

type rvar struct {
	name string
	slot int
}

type rscope struct {
	kind  scopeKind
	start int // index into vars of the scope's first name
}

func (r *resolver) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("prog: %s: %s (checker should have caught this)", r.p.Name, fmt.Sprintf(format, args...))
	}
}

func (r *resolver) function(f *Func, rf *rfunc) {
	r.vars, r.scopes, r.nslots = r.vars[:0], r.scopes[:0], 0
	r.push(scopeFunc)
	for _, name := range f.Params {
		r.declare(name)
	}
	rf.body = r.stmts(f.Body)
	if f.Ret != nil {
		rf.ret = r.expr(f.Ret)
	}
	rf.nslots = r.nslots
}

func (r *resolver) push(kind scopeKind) {
	r.scopes = append(r.scopes, rscope{kind: kind, start: len(r.vars)})
}

func (r *resolver) pop() {
	top := r.scopes[len(r.scopes)-1]
	r.vars = r.vars[:top.start]
	r.scopes = r.scopes[:len(r.scopes)-1]
}

// declare gives name a fresh slot in the innermost scope and reports
// whether that scope is a loop body.
func (r *resolver) declare(name string) (slot int, loopBody bool) {
	slot = r.nslots
	r.nslots++
	r.vars = append(r.vars, rvar{name: name, slot: slot})
	return slot, r.scopes[len(r.scopes)-1].kind == scopeLoop
}

// lookup finds the innermost visible binding of name in the function.
func (r *resolver) lookup(name string) (int, bool) {
	for i := len(r.vars) - 1; i >= 0; i-- {
		if r.vars[i].name == name {
			return r.vars[i].slot, true
		}
	}
	return 0, false
}

func (r *resolver) variable(name, what string) int {
	slot, ok := r.lookup(name)
	if !ok {
		r.fail("%s undeclared %q", what, name)
	}
	return slot
}

func (r *resolver) region(name string) int {
	if i, ok := r.im.Index(name); ok {
		return i
	}
	return -1
}

func (r *resolver) class(name string) int {
	if name == "" {
		return -1
	}
	c, ok := r.classes[name]
	if !ok {
		c = len(r.classes)
		r.classes[name] = c
	}
	return c
}

func (r *resolver) stmts(stmts []Stmt) []rstmt {
	out := make([]rstmt, len(stmts))
	for i, s := range stmts {
		out[i] = r.stmt(s)
	}
	return out
}

func (r *resolver) stmt(s Stmt) rstmt {
	switch st := s.(type) {
	case Let:
		e := r.expr(st.E)
		slot, loopBody := r.declare(st.Name)
		return &rLet{slot: slot, loopBody: loopBody, e: e}
	case Assign:
		e := r.expr(st.E)
		return &rAssign{slot: r.variable(st.Name, "assign to"), e: e}
	case StoreStmt:
		return &rStore{addr: r.expr(st.Addr), val: r.expr(st.Val),
			region: r.region(st.Mem), class: r.class(st.Class), mem: st.Mem}
	case If:
		ri := &rIf{cond: r.expr(st.Cond)}
		r.push(scopeBlock)
		ri.then = r.stmts(st.Then)
		r.pop()
		r.push(scopeBlock)
		ri.els = r.stmts(st.Else)
		r.pop()
		return ri
	case While:
		return r.while(st)
	case ExprStmt:
		return &rExprStmt{e: r.expr(st.E)}
	}
	r.fail("unknown statement %T", s)
	return nil
}

func (r *resolver) while(w While) *rWhile {
	rw := &rWhile{inits: make([]rexpr, len(w.Vars)), out: make([]mergeOut, len(w.Vars))}
	for i, v := range w.Vars {
		rw.inits[i] = r.expr(v.Init)
	}
	r.push(scopeLoop)
	rw.vars = r.nslots
	for _, v := range w.Vars {
		r.declare(v.Name)
	}
	rw.cond = r.expr(w.Cond)
	rw.body = r.stmts(w.Body)
	r.pop()
	for i, v := range w.Vars {
		m := mergeOut{from: rw.vars + i}
		if slot, ok := r.lookup(v.Name); ok {
			m.to = slot
		} else {
			m.to, m.loopBody = r.declare(v.Name)
			m.fresh = true
		}
		rw.out[i] = m
	}
	return rw
}

func (r *resolver) expr(e Expr) rexpr {
	switch ex := e.(type) {
	case Const:
		return &rConst{v: ex.V}
	case Var:
		return &rVar{slot: r.variable(ex.Name, "read of")}
	case Bin:
		return &rBin{op: ex.Op, a: r.expr(ex.A), b: r.expr(ex.B)}
	case Select:
		return &rSelect{cond: r.expr(ex.Cond), then: r.expr(ex.Then), els: r.expr(ex.Else)}
	case Load:
		return &rLoad{addr: r.expr(ex.Addr), region: r.region(ex.Mem), class: r.class(ex.Class), mem: ex.Mem}
	case Call:
		fn := r.funcs[ex.Fn]
		switch {
		case fn == nil:
			r.fail("call to unknown %q", ex.Fn)
			return nil
		case fn.nparams != len(ex.Args):
			r.fail("call to %q with %d args, want %d", ex.Fn, len(ex.Args), fn.nparams)
			return nil
		}
		c := &rCall{fn: fn, args: make([]rexpr, len(ex.Args))}
		for i, a := range ex.Args {
			c.args[i] = r.expr(a)
		}
		c.tmp = r.nslots
		r.nslots += len(ex.Args)
		return c
	}
	r.fail("unknown expression %T", e)
	return nil
}
