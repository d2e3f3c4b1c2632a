package compile

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/prog"
)

// TestAsmRoundTripExecution serializes a compiled workload graph to
// assembly, parses it back, and requires the reparsed graph to validate
// and execute identically on the TYR machine.
func TestAsmRoundTripExecution(t *testing.T) {
	p := prog.NewProgram("asmtrip", "main")
	p.DeclareMem("out", 16)
	p.AddFunc("square", []string{"x"}, prog.Mul(prog.V("x"), prog.V("x")))
	p.AddFunc("main", nil, prog.V("acc"),
		prog.ForRange("L", "i", prog.C(0), prog.C(16), []prog.LoopVar{prog.LV("acc", prog.C(0))},
			prog.LetS("sq", prog.CallE("square", prog.V("i"))),
			prog.St("out", prog.V("i"), prog.V("sq")),
			prog.Set("acc", prog.Add(prog.V("acc"), prog.V("sq"))),
		),
	)
	g, err := Tagged(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	text, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	back, err := dfg.ParseGraph(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if err := back.Validate(dfg.ModeTagged); err != nil {
		t.Fatalf("reparsed graph invalid: %v", err)
	}

	run := func(g *dfg.Graph) core.Result {
		im := prog.DefaultImage(p)
		res, err := core.Run(g, im, core.Config{Policy: core.PolicyTyr, TagsPerBlock: 4, Sanitize: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	orig, reparsed := run(g), run(back)
	if orig.ResultValue != reparsed.ResultValue {
		t.Errorf("results differ: %d vs %d", orig.ResultValue, reparsed.ResultValue)
	}
	if orig.Cycles != reparsed.Cycles || orig.Fired != reparsed.Fired {
		t.Errorf("execution differs: %d/%d vs %d/%d cycles/fired",
			orig.Cycles, orig.Fired, reparsed.Cycles, reparsed.Fired)
	}
}
