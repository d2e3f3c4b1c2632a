package compile

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/ordered"
	"repro/internal/prog"
)

// mustVet statically verifies a compiled graph and fails the test on any
// definite violation. Every graph the differential suites produce must be
// clean: the verifier models exactly the invariants the compiler promises.
func mustVet(t *testing.T, g *dfg.Graph, p *prog.Program) {
	t.Helper()
	rep := analysis.Vet(g, p)
	if !rep.OK() {
		t.Fatalf("static verification failed:\n%s", rep)
	}
}

// diffCase is one program run through every architecture and compared
// against the reference interpreter, word for word.
type diffCase struct {
	name string
	p    *prog.Program
	args []int64
	init func(*mem.Image) // optional input data
}

func buildImage(t *testing.T, c diffCase) *mem.Image {
	t.Helper()
	im := prog.DefaultImage(c.p)
	if c.init != nil {
		c.init(im)
	}
	return im
}

// runDifferential executes the case on the interpreter, TYR (2 and 64 tags),
// naive unordered, and ordered dataflow, requiring identical results and
// final memory everywhere.
func runDifferential(t *testing.T, c diffCase) {
	t.Helper()
	if err := prog.Check(c.p); err != nil {
		t.Fatalf("Check: %v", err)
	}

	ref := buildImage(t, c)
	refRes, err := prog.Run(c.p, ref, prog.RunConfig{Args: c.args, MaxSteps: 1 << 26})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	tg, err := Tagged(c.p, Options{EntryArgs: c.args})
	if err != nil {
		t.Fatalf("Tagged: %v", err)
	}
	mustVet(t, tg, c.p)

	tagConfigs := []struct {
		label string
		cfg   core.Config
	}{
		{"tyr-2tags", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 2, Sanitize: true}},
		{"tyr-64tags", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 64, Sanitize: true}},
		{"tyr-3tags-w4", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 3, IssueWidth: 4, Sanitize: true}},
		{"unordered", core.Config{Policy: core.PolicyGlobalUnlimited, Sanitize: true}},
	}
	for _, tc := range tagConfigs {
		im := buildImage(t, c)
		res, err := core.Run(tg, im, tc.cfg)
		if err != nil {
			t.Errorf("%s: %v", tc.label, err)
			continue
		}
		if !res.Completed {
			t.Errorf("%s: did not complete: %v", tc.label, res.Deadlock)
			continue
		}
		if res.ResultValue != refRes.Ret {
			t.Errorf("%s: result %d, want %d", tc.label, res.ResultValue, refRes.Ret)
		}
		if !im.Equal(ref) {
			t.Errorf("%s: memory differs: %v", tc.label, im.Diff(ref, 5))
		}
	}

	og, err := Ordered(c.p, Options{EntryArgs: c.args})
	if err != nil {
		t.Fatalf("Ordered: %v", err)
	}
	mustVet(t, og, c.p)
	for _, qcap := range []int{2, 4} {
		im := buildImage(t, c)
		res, err := ordered.Run(og, im, ordered.Config{QueueCap: qcap})
		if err != nil {
			t.Errorf("ordered(q=%d): %v", qcap, err)
			continue
		}
		if res.ResultValue != refRes.Ret {
			t.Errorf("ordered(q=%d): result %d, want %d", qcap, res.ResultValue, refRes.Ret)
		}
		if !im.Equal(ref) {
			t.Errorf("ordered(q=%d): memory differs: %v", qcap, im.Diff(ref, 5))
		}
	}
}

func TestDiffArithmetic(t *testing.T) {
	p := prog.NewProgram("arith", "main")
	p.AddFunc("main", []string{"x"},
		prog.Add(prog.Mul(prog.V("x"), prog.C(3)), prog.C(4)))
	runDifferential(t, diffCase{name: "arith", p: p, args: []int64{5}})
}

func TestDiffCountedLoop(t *testing.T) {
	p := prog.NewProgram("sum", "main")
	p.AddFunc("main", nil, prog.V("sum"),
		prog.ForRange("L", "i", prog.C(0), prog.C(20), []prog.LoopVar{prog.LV("sum", prog.C(0))},
			prog.Set("sum", prog.Add(prog.V("sum"), prog.V("i"))),
		),
	)
	runDifferential(t, diffCase{name: "sum", p: p})
}

func TestDiffNestedLoops(t *testing.T) {
	p := prog.NewProgram("nest", "main")
	p.DeclareMem("out", 6)
	p.AddFunc("main", nil, prog.V("total"),
		prog.ForRange("outer", "i", prog.C(0), prog.C(6), []prog.LoopVar{prog.LV("total", prog.C(0))},
			prog.ForRange("inner", "j", prog.C(0), prog.C(5), []prog.LoopVar{prog.LV("acc", prog.C(0))},
				prog.Set("acc", prog.Add(prog.V("acc"), prog.Mul(prog.V("i"), prog.V("j")))),
			),
			prog.St("out", prog.V("i"), prog.V("acc")),
			prog.Set("total", prog.Add(prog.V("total"), prog.V("acc"))),
		),
	)
	runDifferential(t, diffCase{name: "nest", p: p})
}

func TestDiffDataDependentWhile(t *testing.T) {
	p := prog.NewProgram("collatz", "main")
	p.AddFunc("main", []string{"n0"}, prog.V("steps"),
		prog.Loop("collatz",
			[]prog.LoopVar{prog.LV("n", prog.V("n0")), prog.LV("steps", prog.C(0))},
			prog.Ne(prog.V("n"), prog.C(1)),
			prog.IfS(prog.Eq(prog.Rem(prog.V("n"), prog.C(2)), prog.C(0)),
				[]prog.Stmt{prog.Set("n", prog.Div(prog.V("n"), prog.C(2)))},
				[]prog.Stmt{prog.Set("n", prog.Add(prog.Mul(prog.V("n"), prog.C(3)), prog.C(1)))},
			),
			prog.Set("steps", prog.Add(prog.V("steps"), prog.C(1))),
		),
	)
	runDifferential(t, diffCase{name: "collatz", p: p, args: []int64{27}})
}

func TestDiffBranchStores(t *testing.T) {
	p := prog.NewProgram("branchstore", "main")
	p.DeclareMem("a", 16)
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("L", "i", prog.C(0), prog.C(16), nil,
			prog.IfS(prog.Eq(prog.Rem(prog.V("i"), prog.C(2)), prog.C(0)),
				[]prog.Stmt{prog.St("a", prog.V("i"), prog.Mul(prog.V("i"), prog.C(10)))},
				[]prog.Stmt{prog.St("a", prog.V("i"), prog.Sub(prog.C(0), prog.V("i")))},
			),
		),
	)
	runDifferential(t, diffCase{name: "branchstore", p: p})
}

func TestDiffOneArmedIf(t *testing.T) {
	p := prog.NewProgram("onearm", "main")
	p.AddFunc("main", nil, prog.V("count"),
		prog.ForRange("L", "i", prog.C(0), prog.C(12), []prog.LoopVar{prog.LV("count", prog.C(0))},
			prog.When(prog.Gt(prog.Rem(prog.V("i"), prog.C(3)), prog.C(0)),
				prog.Set("count", prog.Add(prog.V("count"), prog.C(1))),
			),
		),
	)
	runDifferential(t, diffCase{name: "onearm", p: p})
}

func TestDiffFunctionCalls(t *testing.T) {
	p := prog.NewProgram("calls", "main")
	p.AddFunc("square", []string{"x"}, prog.Mul(prog.V("x"), prog.V("x")))
	p.AddFunc("main", nil, prog.V("acc"),
		prog.ForRange("L", "i", prog.C(0), prog.C(8), []prog.LoopVar{prog.LV("acc", prog.C(0))},
			prog.Set("acc", prog.Add(prog.V("acc"), prog.CallE("square", prog.V("i")))),
		),
	)
	runDifferential(t, diffCase{name: "calls", p: p})
}

func TestDiffCallWithStores(t *testing.T) {
	p := prog.NewProgram("callstore", "main")
	p.DeclareMem("out", 8)
	p.AddFunc("writeone", []string{"i"}, prog.V("i"),
		prog.St("out", prog.V("i"), prog.Mul(prog.V("i"), prog.V("i"))))
	p.AddFunc("main", nil, prog.V("acc"),
		prog.ForRange("L", "i", prog.C(0), prog.C(8), []prog.LoopVar{prog.LV("acc", prog.C(0))},
			prog.Set("acc", prog.Add(prog.V("acc"), prog.CallE("writeone", prog.V("i")))),
		),
	)
	runDifferential(t, diffCase{name: "callstore", p: p})
}

func TestDiffOrderingClassRMW(t *testing.T) {
	p := prog.NewProgram("rmw", "main")
	p.DeclareMem("a", 2)
	p.AddFunc("main", nil, prog.LdClass("a", prog.C(0), "acc"),
		prog.ForRange("L", "i", prog.C(0), prog.C(10), nil,
			prog.StClass("a", prog.C(0),
				prog.Add(prog.LdClass("a", prog.C(0), "acc"), prog.C(3)), "acc"),
		),
	)
	runDifferential(t, diffCase{name: "rmw", p: p})
}

func TestDiffZeroTripLoop(t *testing.T) {
	p := prog.NewProgram("zerotrip", "main")
	p.AddFunc("main", nil, prog.V("sum"),
		prog.ForRange("L", "i", prog.C(5), prog.C(5), []prog.LoopVar{prog.LV("sum", prog.C(42))},
			prog.Set("sum", prog.C(0)),
		),
	)
	runDifferential(t, diffCase{name: "zerotrip", p: p})
}

func TestDiffDataDependentTrips(t *testing.T) {
	// Inner loop whose trip count depends on loaded data (sparse-style).
	p := prog.NewProgram("ragged", "main")
	p.DeclareMem("lens", 5)
	p.DeclareMem("out", 5)
	p.AddFunc("main", nil, prog.V("total"),
		prog.ForRange("outer", "i", prog.C(0), prog.C(5), []prog.LoopVar{prog.LV("total", prog.C(0))},
			prog.LetS("n", prog.Ld("lens", prog.V("i"))),
			prog.ForRange("inner", "j", prog.C(0), prog.V("n"), []prog.LoopVar{prog.LV("s", prog.C(0))},
				prog.Set("s", prog.Add(prog.V("s"), prog.Add(prog.V("j"), prog.C(1)))),
			),
			prog.St("out", prog.V("i"), prog.V("s")),
			prog.Set("total", prog.Add(prog.V("total"), prog.V("s"))),
		),
	)
	runDifferential(t, diffCase{name: "ragged", p: p, init: func(im *mem.Image) {
		im.SetRegion("lens", []int64{3, 0, 5, 1, 2})
	}})
}

func TestDiffSelect(t *testing.T) {
	p := prog.NewProgram("select", "main")
	p.AddFunc("main", nil, prog.V("acc"),
		prog.ForRange("L", "i", prog.C(0), prog.C(10), []prog.LoopVar{prog.LV("acc", prog.C(0))},
			prog.Set("acc", prog.Add(prog.V("acc"),
				prog.Sel(prog.Lt(prog.V("i"), prog.C(5)), prog.V("i"), prog.Mul(prog.V("i"), prog.C(100))))),
		),
	)
	runDifferential(t, diffCase{name: "select", p: p})
}

func TestDiffLoopInBranch(t *testing.T) {
	p := prog.NewProgram("loopinbranch", "main")
	p.AddFunc("main", []string{"n"}, prog.V("r"),
		prog.LetS("r", prog.C(0)),
		prog.IfS(prog.Gt(prog.V("n"), prog.C(0)),
			[]prog.Stmt{
				prog.ForRange("L", "i", prog.C(0), prog.V("n"), []prog.LoopVar{prog.LV("r", prog.V("r"))},
					prog.Set("r", prog.Add(prog.V("r"), prog.V("i"))),
				),
			},
			[]prog.Stmt{prog.Set("r", prog.C(-1))},
		),
	)
	runDifferential(t, diffCase{name: "loopinbranch-pos", p: p, args: []int64{7}})
	runDifferential(t, diffCase{name: "loopinbranch-neg", p: p, args: []int64{-2}})
}

func TestDiffInvariantValues(t *testing.T) {
	// Loop-invariant token values (loaded before the loop) used inside.
	p := prog.NewProgram("invariant", "main")
	p.DeclareMem("cfg", 2)
	p.AddFunc("main", nil, prog.V("acc"),
		prog.LetS("scale", prog.Ld("cfg", prog.C(0))),
		prog.LetS("bias", prog.Ld("cfg", prog.C(1))),
		prog.ForRange("L", "i", prog.C(0), prog.C(6), []prog.LoopVar{prog.LV("acc", prog.C(0))},
			prog.Set("acc", prog.Add(prog.V("acc"),
				prog.Add(prog.Mul(prog.V("i"), prog.V("scale")), prog.V("bias")))),
		),
	)
	runDifferential(t, diffCase{name: "invariant", p: p, init: func(im *mem.Image) {
		im.SetRegion("cfg", []int64{7, 11})
	}})
}

func TestDiffTripleNest(t *testing.T) {
	p := prog.NewProgram("triple", "main")
	p.AddFunc("main", nil, prog.V("t"),
		prog.ForRange("a", "i", prog.C(0), prog.C(3), []prog.LoopVar{prog.LV("t", prog.C(0))},
			prog.ForRange("b", "j", prog.C(0), prog.C(3), []prog.LoopVar{prog.LV("t", prog.V("t"))},
				prog.ForRange("c", "k", prog.C(0), prog.C(3), []prog.LoopVar{prog.LV("t", prog.V("t"))},
					prog.Set("t", prog.Add(prog.V("t"), prog.C(1))),
				),
			),
		),
	)
	runDifferential(t, diffCase{name: "triple", p: p})
}
