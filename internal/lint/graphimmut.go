package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GraphImmut proves the compiled-graph sharing assumption: outside the
// graph builders (Policy.GraphBuilders), no statement writes through an
// expression rooted in a dfg struct. An apps.App (internal/apps) hands
// its one *dfg.Graph per lowering to any number of concurrent runs
// precisely because "engines never mutate a *dfg.Graph" — this analyzer
// turns that comment into a build break.
//
// Flagged writes: assignments (including op-assign), ++/--, and the copy
// builtin, whenever the lvalue's selector/index spine passes through a
// pointer to a dfg struct (g.Nodes[i].X = v, n.Outs[out] = ..., *np = n).
// Writes to a local *value copy* of a dfg struct are allowed — they cannot
// alias the shared graph. Aliases laundered through intermediate local
// variables (p := n.Outs[0]; p[1] = d) are out of static scope; the
// shared-graph race test in internal/harness is the dynamic complement.
var GraphImmut = &Analyzer{
	Name: "graphimmut",
	Doc:  "no package outside the graph builders writes to state reachable from *dfg.Graph",
	Run:  runGraphImmut,
}

func runGraphImmut(pass *Pass) {
	pol := pass.Policy
	if pass.Pkg.Path == pol.GraphPkg || has(pol.GraphBuilders, pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				if stmt.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range stmt.Lhs {
					checkGraphWrite(pass, lhs, "assignment")
				}
			case *ast.IncDecStmt:
				checkGraphWrite(pass, stmt.X, stmt.Tok.String())
			case *ast.CallExpr:
				if id, ok := ast.Unparen(stmt.Fun).(*ast.Ident); ok && id.Name == "copy" && len(stmt.Args) == 2 {
					if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						checkGraphWrite(pass, stmt.Args[0], "copy into")
					}
				}
			case *ast.RangeStmt:
				if stmt.Tok == token.ASSIGN {
					if stmt.Key != nil {
						checkGraphWrite(pass, stmt.Key, "range assignment")
					}
					if stmt.Value != nil {
						checkGraphWrite(pass, stmt.Value, "range assignment")
					}
				}
			}
			return true
		})
	}
}

// checkGraphWrite reports if lvalue writes through graph-owned storage.
func checkGraphWrite(pass *Pass, lvalue ast.Expr, how string) {
	e := lvalue
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			// *p = v with p pointing at a dfg struct overwrites shared
			// graph state wholesale.
			if namedStructFrom(typeOf(pass.Pkg, x.X), pass.Policy.GraphPkg) && isPointer(typeOf(pass.Pkg, x.X)) {
				pass.Reportf(lvalue.Pos(), "%s mutates %s state shared via *dfg.Graph (engines must never write compiled graphs)", how, pass.Policy.GraphPkg)
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			t := typeOf(pass.Pkg, x.X)
			if namedStructFrom(t, pass.Policy.GraphPkg) {
				if isPointer(t) {
					pass.Reportf(lvalue.Pos(), "%s mutates %s.%s through a pointer to shared graph state (engines must never write compiled graphs)", how, deref(t).(*types.Named).Obj().Name(), x.Sel.Name)
					return
				}
				// Value operand: whether this aliases the graph depends
				// on where the value came from — keep walking the spine.
			}
			e = x.X
		case *ast.IndexExpr:
			// Indexing a slice (or map) aliases its backing store; the
			// verdict comes from where the slice itself was obtained.
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return
		}
	}
}
