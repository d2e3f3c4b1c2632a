package compile_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/prog"
)

// TestSuiteAsmRoundTrip pins assembly text as the one serialization a
// compiled graph has: every bundled kernel at every scale, under both
// lowerings, parses back field-for-field identical to the compiler's
// graph, re-marshals byte-identically, and validates in its lowering's
// mode — the checks tyrsim -graph relies on when it runs a loaded graph.
func TestSuiteAsmRoundTrip(t *testing.T) {
	lowerings := []struct {
		name  string
		lower func(*prog.Program, compile.Options) (*dfg.Graph, error)
		mode  dfg.Mode
	}{
		{"tagged", compile.Tagged, dfg.ModeTagged},
		{"ordered", compile.Ordered, dfg.ModeOrdered},
	}
	for _, scale := range []apps.Scale{apps.ScaleTiny, apps.ScaleSmall, apps.ScaleMedium} {
		for _, app := range apps.Suite(scale) {
			for _, l := range lowerings {
				name := app.Name + "/" + scale.String() + "/" + l.name
				g, err := l.lower(app.Prog, compile.Options{EntryArgs: app.Args})
				if err != nil {
					t.Fatalf("%s: compile: %v", name, err)
				}
				text, err := g.MarshalText()
				if err != nil {
					t.Fatalf("%s: marshal: %v", name, err)
				}
				back, err := dfg.ParseGraph(text)
				if err != nil {
					t.Fatalf("%s: parse: %v", name, err)
				}
				if !reflect.DeepEqual(back, g) {
					t.Errorf("%s: parsed graph differs from the compiled graph", name)
				}
				again, err := back.MarshalText()
				if err != nil {
					t.Fatalf("%s: re-marshal: %v", name, err)
				}
				if !bytes.Equal(again, text) {
					t.Errorf("%s: re-marshaled text differs from the original", name)
				}
				if err := back.Validate(l.mode); err != nil {
					t.Errorf("%s: parsed graph fails validation: %v", name, err)
				}
			}
		}
	}
}
