// Package lint is the repo's custom static-analysis suite: a set of
// analyzers that prove, at the source level, the load-bearing invariants
// the fast paths and the serving layer stand on. Each analyzer is the
// static complement of a runtime guarantee that today is guarded only by
// comments and spot checks:
//
//   - graphimmut: no package outside the graph builders writes through a
//     *dfg.Graph — the assumption that lets an apps.App share its one
//     compiled graph per lowering across concurrent runs (internal/apps).
//   - hotpath: functions annotated //tyr:hotpath contain no
//     allocation-inducing constructs — the static complement of the
//     AllocsPerRun gates on the matching/dispatch hot path.
//   - cancelpoll: every engine cycle loop polls its cancel.Flag — the
//     504/drain guarantee of the tyrd service.
//   - determinism: no wall clock, no math/rand, no map-range iteration
//     inside the engine packages — what the golden-digest suite would
//     otherwise catch a release too late.
//   - metricsdiscipline: internal/server counters and gauges are mutated
//     only through their atomic or mutex-guarded accessors.
//
// The suite deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, fixture tests with "// want" comments) but is
// implemented on the standard library alone (go/parser + go/types with
// the source importer), because this module carries zero dependencies and
// the build environment must not fetch any.
//
// Run it with cmd/tyrlint, `make lint`, or let internal/lint's self test
// enforce a clean repo on every `go test ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant it proves.
	Doc string
	// Run applies the analyzer to one package, reporting through pass.
	Run func(pass *Pass)
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		GraphImmut,
		HotPath,
		CancelPoll,
		Determinism,
		MetricsDiscipline,
	}
}

// Policy names the packages each invariant binds to. The default policy
// encodes this repo's layout; fixture tests substitute synthetic paths.
type Policy struct {
	// GraphPkg is the package defining the immutable graph types.
	GraphPkg string
	// GraphBuilders are the packages allowed to write through graph
	// types: they own freshly built graphs before publication. Once a
	// graph is returned from a builder it is shared (an apps.App hands
	// its one *dfg.Graph per lowering to any number of concurrent runs)
	// and must never be written again.
	GraphBuilders []string
	// EnginePkgs are the simulation engines: deterministic by contract
	// (golden digests), so no wall clock, no math/rand, no map-range
	// feeding results.
	EnginePkgs []string
	// CycleLoopPkgs must each contain at least one //tyr:cycleloop
	// function (an engine's main loop polling its cancel flag).
	CycleLoopPkgs []string
	// DelegatingEngines run their cycles through the reference
	// interpreter; every RunConfig composite literal they build must
	// arm the Stop field, or the 504/drain guarantee silently breaks.
	DelegatingEngines []string
	// RunConfigType is the fully qualified interpreter config type
	// ("pkgpath.TypeName") whose Stop field delegating engines must set.
	RunConfigType string
	// CancelPkg is the package defining the cooperative stop flag.
	CancelPkg string
	// MetricsPkgs are checked for metrics-field discipline.
	MetricsPkgs []string
	// MetricsAccessorFiles are the base filenames (per metrics package)
	// allowed to touch Metrics fields directly: the accessor module.
	MetricsAccessorFiles []string
}

// DefaultPolicy binds the suite to this repository's packages.
func DefaultPolicy() Policy {
	return Policy{
		GraphPkg: "repro/internal/dfg",
		GraphBuilders: []string{
			"repro/internal/dfg",      // owns the types and their builders
			"repro/internal/compile",  // lowers programs into fresh graphs
			"repro/internal/graphgen", // random-program/graph generator
		},
		EnginePkgs: []string{
			"repro/internal/core",
			"repro/internal/ordered",
			"repro/internal/seqdf",
			"repro/internal/vn",
			"repro/internal/prog",
			"repro/internal/metrics", // the live-state trace every engine feeds
		},
		CycleLoopPkgs: []string{
			"repro/internal/core",
			"repro/internal/ordered",
			"repro/internal/prog",
		},
		DelegatingEngines: []string{
			"repro/internal/vn",
			"repro/internal/seqdf",
		},
		RunConfigType:        "repro/internal/prog.RunConfig",
		CancelPkg:            "repro/internal/cancel",
		MetricsPkgs:          []string{"repro/internal/server"},
		MetricsAccessorFiles: []string{"metrics.go"},
	}
}

// has reports whether list contains s.
func has(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Policy   Policy
	Pkg      *Package

	diags *[]Diagnostic
	// suppress maps file -> set of lines carrying a //tyr:ignore for
	// this analyzer (the marker's own line; it silences that line and
	// the next).
	suppress map[string]map[int]bool
}

// Reportf records a diagnostic at pos unless a //tyr:ignore suppression
// covers its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if lines, ok := p.suppress[position.Filename]; ok {
		if lines[position.Line] || lines[position.Line-1] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreMarker is the line-level suppression: a comment of the form
//
//	//tyr:ignore <analyzer> -- <reason>
//
// on the offending line or the line above silences that analyzer there.
// The reason is mandatory: a suppression without a recorded justification
// is itself reported by every analyzer that parses it.
const ignoreMarker = "//tyr:ignore"

// buildSuppressions scans a package's comments for ignore markers aimed
// at this analyzer. Malformed markers (no analyzer name, or no reason
// after " -- ") are reported instead of honored.
func (p *Pass) buildSuppressions() {
	p.suppress = make(map[string]map[int]bool)
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignoreMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreMarker))
				name, reason, found := strings.Cut(rest, "--")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				if name == "" || !found || reason == "" {
					// Report malformed markers once, from the first
					// analyzer in the suite, to avoid 5x duplication.
					if p.Analyzer.Name == All()[0].Name {
						position := p.Pkg.Fset.Position(c.Pos())
						*p.diags = append(*p.diags, Diagnostic{
							Pos:      position,
							Analyzer: p.Analyzer.Name,
							Message:  "malformed //tyr:ignore: want \"//tyr:ignore <analyzer> -- <reason>\"",
						})
					}
					continue
				}
				if name != p.Analyzer.Name {
					continue
				}
				position := p.Pkg.Fset.Position(c.Pos())
				lines := p.suppress[position.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					p.suppress[position.Filename] = lines
				}
				lines[position.Line] = true
			}
		}
	}
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined, sorted diagnostics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, policy Policy) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Policy: policy, Pkg: pkg, diags: &diags}
			pass.buildSuppressions()
			a.Run(pass)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// funcAnnotated reports whether fn's doc comment carries the given
// //tyr:<marker> directive line.
func funcAnnotated(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}
