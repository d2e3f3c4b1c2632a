package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath is the static complement of the AllocsPerRun gates: functions
// annotated //tyr:hotpath (the engine step loops, the token store ops,
// the calendar queue) must contain no allocation-inducing construct.
// The token store made the matching/dispatch path allocation-free in
// steady state; this analyzer keeps it that way at review time instead of
// bench time.
//
// Flagged inside annotated functions: make and new, map/slice composite
// literals (struct literals are stack values and stay legal), &composite
// literals, func literals (closure captures), go and defer statements,
// string concatenation and string<->[]byte/[]rune conversions, calls into
// fmt/strings/strconv/log/log/slog/errors, and boxing a non-pointer
// value into an interface parameter.
//
// Two escapes are deliberate: constructs lexically inside a return
// statement or a panic call are error/abort paths (the run is over — the
// steady-state claim no longer applies), and amortized growth lives in
// unannotated helpers (waitStore.growArena, cq.Queue.grow) that the
// annotated ops may call — the dynamic AllocsPerRun gates bound how often
// those fire.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//tyr:hotpath functions contain no allocation-inducing constructs outside abort paths",
	Run:  runHotPath,
}

// hotpathMarker annotates a function as steady-state allocation-free.
const hotpathMarker = "//tyr:hotpath"

// allocFreeCallPkgs are stdlib packages whose calls imply formatting or
// error construction — never steady-state work.
var hotpathBannedPkgs = map[string]string{
	"fmt":      "formats and boxes arguments",
	"strings":  "builds fresh strings",
	"strconv":  "builds fresh strings",
	"errors":   "constructs errors",
	"log":      "formats and locks",
	"log/slog": "formats and boxes arguments",
	"sort":     "takes closure comparators", // sort.Slice allocates the closure + boxes the slice
}

func runHotPath(pass *Pass) {
	forEachFunc(pass.Pkg, func(_ *ast.File, fn *ast.FuncDecl) {
		if !funcAnnotated(fn, hotpathMarker) || fn.Body == nil {
			return
		}
		checkHotBody(pass, fn)
	})
}

func checkHotBody(pass *Pass, fn *ast.FuncDecl) {
	// exempt collects the position intervals of abort paths: return
	// statements and panic calls. Anything inside them may allocate —
	// the run is ending.
	type span struct{ lo, hi token.Pos }
	var exempt []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			exempt = append(exempt, span{x.Pos(), x.End()})
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					exempt = append(exempt, span{x.Pos(), x.End()})
				}
			}
		}
		return true
	})
	exempted := func(pos token.Pos) bool {
		for _, s := range exempt {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if exempted(pos) {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "closure in //tyr:hotpath function %s (captures allocate)", fn.Name.Name)
			return false // don't descend: the closure body is not the hot path itself
		case *ast.GoStmt:
			report(x.Pos(), "goroutine launch in //tyr:hotpath function %s", fn.Name.Name)
		case *ast.DeferStmt:
			report(x.Pos(), "defer in //tyr:hotpath function %s", fn.Name.Name)
		case *ast.CompositeLit:
			t := typeOf(pass.Pkg, x)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(x.Pos(), "%s literal allocates in //tyr:hotpath function %s", describeType(t), fn.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "&composite literal in //tyr:hotpath function %s may escape to the heap", fn.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := typeOf(pass.Pkg, x); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(x.Pos(), "string concatenation in //tyr:hotpath function %s", fn.Name.Name)
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, x, report)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	// Builtins that always allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				report(call.Pos(), "%s in //tyr:hotpath function %s", id.Name, fn.Name.Name)
			case "append":
				// Amortized append into a retained buffer is the design
				// (double-buffered outboxes, freelists); only appending
				// to a slice born in this very expression is a
				// guaranteed allocation.
				if len(call.Args) > 0 {
					switch ast.Unparen(call.Args[0]).(type) {
					case *ast.CompositeLit, *ast.CallExpr:
						report(call.Pos(), "append to a fresh slice in //tyr:hotpath function %s always allocates", fn.Name.Name)
					}
				}
			}
			return
		}
	}

	// Type conversions: string <-> []byte/[]rune copy.
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := typeOf(pass.Pkg, call.Args[0])
		if src != nil {
			if isStringish(dst) != isStringish(src) && (isStringish(dst) || isStringish(src)) && (isByteOrRuneSlice(dst) || isByteOrRuneSlice(src)) {
				report(call.Pos(), "string/[]byte conversion copies in //tyr:hotpath function %s", fn.Name.Name)
			}
			if _, isIface := dst.Underlying().(*types.Interface); isIface {
				if boxes(pass.Pkg, call.Args[0]) {
					report(call.Pos(), "conversion to interface boxes a value in //tyr:hotpath function %s", fn.Name.Name)
				}
			}
		}
		return
	}

	// Calls into formatting/error-building stdlib packages.
	if pkgPath, name := calleePkgFunc(pass.Pkg, call); pkgPath != "" {
		if why, banned := hotpathBannedPkgs[pkgPath]; banned {
			report(call.Pos(), "%s.%s in //tyr:hotpath function %s (%s)", pkgPath, name, fn.Name.Name, why)
			return
		}
	}

	// Interface boxing at call boundaries: passing a concrete non-pointer
	// value where an interface parameter is declared heap-allocates the
	// value (pointers and constants ride in the interface word or the
	// runtime's small-value caches).
	sig, ok := typeOf(pass.Pkg, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if boxes(pass.Pkg, arg) {
			report(arg.Pos(), "argument boxes a concrete value into interface parameter in //tyr:hotpath function %s", fn.Name.Name)
		}
	}
}

// boxes reports whether passing arg to an interface parameter forces a
// heap allocation: a concrete, non-pointer, non-constant, non-interface
// value.
func boxes(pkg *Package, arg ast.Expr) bool {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil || tv.IsNil() {
		return false // constants and nil
	}
	t := tv.Type
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return false // single-word kinds: no copy-to-heap
	}
	return true
}

func isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func describeType(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return t.String()
}
