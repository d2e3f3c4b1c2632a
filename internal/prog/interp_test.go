package prog

import (
	"slices"
	"strings"
	"testing"
)

// runProg checks and runs a program against its default image, failing the
// test on any error.
func runProg(t *testing.T, p *Program, args ...int64) (Result, []int64) {
	t.Helper()
	if err := Check(p); err != nil {
		t.Fatalf("Check: %v", err)
	}
	im := DefaultImage(p)
	res, err := Run(p, im, RunConfig{Args: args, MaxSteps: 1 << 24})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var out []int64
	if im.NumRegions() > 0 {
		out = im.Words(0)
	}
	return res, out
}

func TestArithmetic(t *testing.T) {
	p := NewProgram("arith", "main")
	p.AddFunc("main", nil, Add(Mul(C(6), C(7)), Sub(C(10), C(3))))
	res, _ := runProg(t, p)
	if res.Ret != 49 {
		t.Errorf("got %d, want 49", res.Ret)
	}
	if res.Stats.ALU != 3 {
		t.Errorf("ALU count = %d, want 3", res.Stats.ALU)
	}
}

func TestComparisonsAndSelect(t *testing.T) {
	p := NewProgram("cmp", "main")
	p.AddFunc("main", []string{"x"},
		Sel(Lt(V("x"), C(10)), C(111), C(222)))
	res, _ := runProg(t, p, 5)
	if res.Ret != 111 {
		t.Errorf("x=5: got %d, want 111", res.Ret)
	}
	res2, err := Run(p, DefaultImage(p), RunConfig{Args: []int64{15}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Ret != 222 {
		t.Errorf("x=15: got %d, want 222", res2.Ret)
	}
}

func TestCountedLoopSum(t *testing.T) {
	// sum = 0; for i in [0,10): sum += i  -> 45
	p := NewProgram("sum", "main")
	p.AddFunc("main", nil, V("sum"),
		ForRange("L", "i", C(0), C(10), []LoopVar{LV("sum", C(0))},
			Set("sum", Add(V("sum"), V("i"))),
		),
	)
	res, _ := runProg(t, p)
	if res.Ret != 45 {
		t.Errorf("got %d, want 45", res.Ret)
	}
	if res.Stats.LoopIters != 10 {
		t.Errorf("iters = %d, want 10", res.Stats.LoopIters)
	}
}

func TestNestedLoops(t *testing.T) {
	// total = sum over i<4, j<3 of i*j = (0+1+2+3)*(0+1+2) = 18
	p := NewProgram("nest", "main")
	p.AddFunc("main", nil, V("total"),
		ForRange("outer", "i", C(0), C(4), []LoopVar{LV("total", C(0))},
			ForRange("inner", "j", C(0), C(3), []LoopVar{LV("acc", V("total"))},
				Set("acc", Add(V("acc"), Mul(V("i"), V("j")))),
			),
			Set("total", V("acc")),
		),
	)
	res, _ := runProg(t, p)
	if res.Ret != 18 {
		t.Errorf("got %d, want 18", res.Ret)
	}
}

func TestWhileGeneral(t *testing.T) {
	// Collatz-ish step count for n=6: 6->3->10->5->16->8->4->2->1 (8 steps)
	p := NewProgram("collatz", "main")
	p.AddFunc("main", []string{"n0"}, V("steps"),
		Loop("collatz",
			[]LoopVar{LV("n", V("n0")), LV("steps", C(0))},
			Ne(V("n"), C(1)),
			IfS(Eq(Rem(V("n"), C(2)), C(0)),
				[]Stmt{Set("n", Div(V("n"), C(2)))},
				[]Stmt{Set("n", Add(Mul(V("n"), C(3)), C(1)))},
			),
			Set("steps", Add(V("steps"), C(1))),
		),
	)
	res, _ := runProg(t, p, 6)
	if res.Ret != 8 {
		t.Errorf("got %d, want 8", res.Ret)
	}
}

func TestMemoryStoreLoad(t *testing.T) {
	p := NewProgram("memrw", "main")
	p.DeclareMem("a", 16)
	p.AddFunc("main", nil, Ld("a", C(7)),
		ForRange("fill", "i", C(0), C(16), nil,
			St("a", V("i"), Mul(V("i"), V("i"))),
		),
	)
	res, words := runProg(t, p)
	if res.Ret != 49 {
		t.Errorf("got %d, want 49", res.Ret)
	}
	for i, w := range words {
		if w != int64(i*i) {
			t.Errorf("a[%d] = %d, want %d", i, w, i*i)
		}
	}
}

func TestOrderingClassSemantics(t *testing.T) {
	// Read-modify-write through an ordering class still computes the
	// right answer under the interpreter (ordering classes only affect
	// timing/parallelism, not values, in the reference semantics).
	p := NewProgram("rmw", "main")
	p.DeclareMem("a", 1)
	p.AddFunc("main", nil, LdClass("a", C(0), "acc"),
		ForRange("L", "i", C(0), C(5), nil,
			StClass("a", C(0), Add(LdClass("a", C(0), "acc"), C(1)), "acc"),
		),
	)
	res, _ := runProg(t, p)
	if res.Ret != 5 {
		t.Errorf("got %d, want 5", res.Ret)
	}
}

func TestFunctionCalls(t *testing.T) {
	p := NewProgram("calls", "main")
	p.AddFunc("square", []string{"x"}, Mul(V("x"), V("x")))
	p.AddFunc("sumsq", []string{"a", "b"},
		Add(CallE("square", V("a")), CallE("square", V("b"))))
	p.AddFunc("main", nil, CallE("sumsq", C(3), C(4)))
	res, _ := runProg(t, p)
	if res.Ret != 25 {
		t.Errorf("got %d, want 25", res.Ret)
	}
	if res.Stats.Calls != 3 {
		t.Errorf("calls = %d, want 3", res.Stats.Calls)
	}
	if res.Stats.MaxCallDepth != 3 {
		t.Errorf("depth = %d, want 3", res.Stats.MaxCallDepth)
	}
}

func TestCallInLoop(t *testing.T) {
	p := NewProgram("callloop", "main")
	p.AddFunc("double", []string{"x"}, Add(V("x"), V("x")))
	p.AddFunc("main", nil, V("acc"),
		ForRange("L", "i", C(0), C(5), []LoopVar{LV("acc", C(0))},
			Set("acc", Add(V("acc"), CallE("double", V("i")))),
		),
	)
	res, _ := runProg(t, p)
	if res.Ret != 20 { // 2*(0+1+2+3+4)
		t.Errorf("got %d, want 20", res.Ret)
	}
}

func TestLoopMergeOutRebindsOuter(t *testing.T) {
	// An outer variable carried through a loop is updated after it.
	p := NewProgram("mergeout", "main")
	p.AddFunc("main", nil, V("x"),
		LetS("x", C(1)),
		Loop("L", []LoopVar{LV("x", V("x")), LV("i", C(0))},
			Lt(V("i"), C(3)),
			Set("x", Mul(V("x"), C(2))),
			Set("i", Add(V("i"), C(1))),
		),
	)
	res, _ := runProg(t, p)
	if res.Ret != 8 {
		t.Errorf("got %d, want 8", res.Ret)
	}
}

func TestLetInLoopBodyShadowsLexically(t *testing.T) {
	// The let shadows the outer x from its declaration on, in every
	// iteration, so the store before it always reads the outer x: the
	// checker's scoping, and the compiled machines'.
	p := MustParse(`program "shadow" entry main
mem out[3]

func main() {
  let x = 1
  loop "L" carry (i = 0) while i < 3 {
    store out[i] = x
    let x = x + 5
    i = i + 1
  }
  return x
}
`)
	res, out := runProg(t, p)
	if res.Ret != 1 || !slices.Equal(out, []int64{1, 1, 1}) {
		t.Errorf("ret %d, out %v; want 1, [1 1 1]", res.Ret, out)
	}
}

func TestIfAssignsOuter(t *testing.T) {
	p := NewProgram("phi", "main")
	p.AddFunc("main", []string{"x"}, V("y"),
		LetS("y", C(0)),
		IfS(Gt(V("x"), C(0)),
			[]Stmt{Set("y", C(100))},
			[]Stmt{Set("y", C(-100))},
		),
	)
	res, _ := runProg(t, p, 5)
	if res.Ret != 100 {
		t.Errorf("got %d, want 100", res.Ret)
	}
}

func TestZeroTripLoop(t *testing.T) {
	p := NewProgram("zerotrip", "main")
	p.AddFunc("main", nil, V("sum"),
		ForRange("L", "i", C(5), C(5), []LoopVar{LV("sum", C(42))},
			Set("sum", C(0)),
		),
	)
	res, _ := runProg(t, p)
	if res.Ret != 42 {
		t.Errorf("got %d, want 42", res.Ret)
	}
	if res.Stats.LoopIters != 0 {
		t.Errorf("iters = %d, want 0", res.Stats.LoopIters)
	}
}

func TestDivisionByZeroError(t *testing.T) {
	p := NewProgram("divzero", "main")
	p.AddFunc("main", nil, Div(C(1), C(0)))
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	_, err := Run(p, DefaultImage(p), RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division-by-zero error, got %v", err)
	}
}

func TestOutOfBoundsError(t *testing.T) {
	p := NewProgram("oob", "main")
	p.DeclareMem("a", 4)
	p.AddFunc("main", nil, Ld("a", C(9)))
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	_, err := Run(p, DefaultImage(p), RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("want out-of-bounds error, got %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	p := NewProgram("forever", "main")
	p.AddFunc("main", nil, C(0),
		Loop("L", []LoopVar{LV("i", C(0))}, C(1), Set("i", Add(V("i"), C(1)))),
	)
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	_, err := Run(p, DefaultImage(p), RunConfig{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("want budget error, got %v", err)
	}
}

func TestShiftAndBitOps(t *testing.T) {
	p := NewProgram("bits", "main")
	p.AddFunc("main", nil,
		Xor(Or(And(C(0b1100), C(0b1010)), Shl(C(1), C(4))), Shr(C(256), C(4))))
	res, _ := runProg(t, p)
	want := int64((0b1100&0b1010)|(1<<4)) ^ (256 >> 4)
	if res.Ret != want {
		t.Errorf("got %d, want %d", res.Ret, want)
	}
}

func TestMinMax(t *testing.T) {
	p := NewProgram("minmax", "main")
	p.AddFunc("main", []string{"a", "b"}, Sub(Max(V("a"), V("b")), Min(V("a"), V("b"))))
	res, _ := runProg(t, p, 3, 11)
	if res.Ret != 8 {
		t.Errorf("got %d, want 8", res.Ret)
	}
}
