package lint

import (
	"go/ast"
	"go/types"
)

// MetricsDiscipline keeps the tyrd service counters honest under 64-way
// concurrency: every field of server.Metrics is either an atomic (mutated
// through Add/Store/... only) or guarded by the struct's mutex (touched
// only inside the accessor file, metrics.go, where the locking lives).
//
// Outside the accessor file, the only legal mention of a Metrics field is
// an atomic field used as the immediate receiver of an atomic method call
// (s.stats.busyTotal.Add(1)). Everything else — assigning a field,
// reading the maps, locking the mutex from afar, copying the struct —
// is reported: the next person to "just bump a counter" from a handler
// gets a build break instead of a torn map under load.
//
// The Histogram type (when the package declares one) is held to a
// stricter rule: its fields may not be mentioned outside the accessor
// file at all, atomic or not. Observe is its entire mutation API —
// bucket indexing arithmetic and the sum/bucket coupling live in one
// place, so a histogram can never be half-updated from a handler.
var MetricsDiscipline = &Analyzer{
	Name: "metricsdiscipline",
	Doc:  "server.Metrics and Histogram fields are mutated only via their atomic/locked accessors",
	Run:  runMetricsDiscipline,
}

// atomicMethods are the sync/atomic value methods that constitute a
// legal touch of an atomic counter field.
var atomicMethods = map[string]bool{
	"Add": true, "Load": true, "Store": true, "Swap": true,
	"CompareAndSwap": true, "And": true, "Or": true,
}

// guardedType is one struct type under field discipline. Strict types
// allow no field mention outside the accessor file at all; non-strict
// types sanction atomic fields used as immediate atomic-call receivers.
type guardedType struct {
	name   string
	typ    types.Type
	strict bool
}

func runMetricsDiscipline(pass *Pass) {
	if !has(pass.Policy.MetricsPkgs, pass.Pkg.Path) {
		return
	}
	// The discipline applies to the package's "Metrics" struct (required —
	// that is what put the package on the policy list) and, stricter, to
	// its "Histogram" struct when one is declared.
	metricsObj := pass.Pkg.Types.Scope().Lookup("Metrics")
	if metricsObj == nil {
		pass.Reportf(pass.Pkg.Files[0].Package,
			"package %s is listed in lint.Policy.MetricsPkgs but declares no Metrics type: update the policy", pass.Pkg.Path)
		return
	}
	guards := []guardedType{{name: "Metrics", typ: metricsObj.Type()}}
	if histObj := pass.Pkg.Types.Scope().Lookup("Histogram"); histObj != nil {
		guards = append(guards, guardedType{name: "Histogram", typ: histObj.Type(), strict: true})
	}
	for _, f := range pass.Pkg.Files {
		if has(pass.Policy.MetricsAccessorFiles, pass.Pkg.FileName(f.Package)) {
			continue // the accessor module owns the fields and the lock
		}
		for _, g := range guards {
			checkMetricsFile(pass, f, g)
		}
	}
}

func checkMetricsFile(pass *Pass, f *ast.File, guard guardedType) {
	// ok marks selector expressions that are sanctioned: an atomic field
	// appearing as the receiver of an atomic method call. Strict types
	// sanction nothing.
	ok := make(map[*ast.SelectorExpr]bool)
	if !guard.strict {
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			method, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !isSel || !atomicMethods[method.Sel.Name] {
				return true
			}
			field, isField := ast.Unparen(method.X).(*ast.SelectorExpr)
			if !isField {
				return true
			}
			if !isMetricsField(pass.Pkg, field, guard.typ) {
				return true
			}
			if isAtomicType(typeOf(pass.Pkg, field)) {
				ok[field] = true
			}
			return true
		})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectorExpr)
		if !isSel || ok[sel] {
			return true
		}
		if !isMetricsField(pass.Pkg, sel, guard.typ) {
			return true
		}
		switch {
		case guard.strict:
			pass.Reportf(sel.Pos(), "%s field %s may only be touched inside the accessor file (metrics.go): Observe is the histogram's entire mutation API", guard.name, sel.Sel.Name)
		case isAtomicType(typeOf(pass.Pkg, sel)):
			pass.Reportf(sel.Pos(), "atomic %s field %s touched outside an atomic method call: use .Add/.Load/... directly on the field, or add an accessor in metrics.go", guard.name, sel.Sel.Name)
		default:
			pass.Reportf(sel.Pos(), "%s field %s is mutex-guarded state: it may only be touched inside the accessor file (metrics.go), where the locking discipline lives", guard.name, sel.Sel.Name)
		}
		return true
	})
}

// isMetricsField reports whether sel selects a *field* of the Metrics
// struct (method calls like m.ObserveRun(...) are the sanctioned API and
// pass freely).
func isMetricsField(pkg *Package, sel *ast.SelectorExpr, metricsType types.Type) bool {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	recv := deref(s.Recv())
	want := deref(metricsType)
	return types.Identical(recv, want)
}

// isAtomicType reports whether t is one of the sync/atomic value types.
func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
