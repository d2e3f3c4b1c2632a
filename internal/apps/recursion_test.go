package apps

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ordered"
	"repro/internal/vn"
)

func TestFibStackReference(t *testing.T) {
	cases := map[int]int64{1: 1, 2: 1, 3: 2, 7: 13, 12: 144}
	for n, want := range cases {
		app := FibStack(n)
		im := app.NewImage()
		res, err := vn.Run(app.Prog, im, vn.Config{Args: app.Args})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Ret != want {
			t.Errorf("fib(%d) = %d, want %d", n, res.Ret, want)
		}
		if err := app.Check(im, res.Ret); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestFibStackOnAllMachines exercises the Sec. V premise end-to-end: the
// transformed recursion runs deadlock-free on TYR with the minimal two
// tags per block, and all machines agree with the oracle.
func TestFibStackOnAllMachines(t *testing.T) {
	app := FibStack(11)
	want := fibRef(11)

	tg, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		{Policy: core.PolicyTyr, TagsPerBlock: 2, Sanitize: true},
		{Policy: core.PolicyTyr, TagsPerBlock: 64, Sanitize: true},
		{Policy: core.PolicyGlobalUnlimited, Sanitize: true},
		{Policy: core.PolicyKBound, TagsPerBlock: 4},
	} {
		res, err := core.Run(tg, app.NewImage(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Policy, err)
		}
		if !res.Completed {
			t.Fatalf("%v: %v", cfg.Policy, res.Deadlock)
		}
		if res.ResultValue != want {
			t.Errorf("%v: got %d, want %d", cfg.Policy, res.ResultValue, want)
		}
	}

	og, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	ores, err := ordered.Run(og, app.NewImage(), ordered.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ores.ResultValue != want {
		t.Errorf("ordered: got %d, want %d", ores.ResultValue, want)
	}
}

// TestFibStackTokenStateBounded: the point of the transformation — token
// state stays bounded by T*N*M even though the logical call tree is
// exponential; the unbounded part lives in memory (the stack region).
func TestFibStackTokenStateBounded(t *testing.T) {
	small := FibStack(8)
	large := FibStack(16)
	peak := func(app *App) int64 {
		g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(g, app.NewImage(), core.Config{Policy: core.PolicyTyr, TagsPerBlock: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.PeakLive
	}
	ps, pl := peak(small), peak(large)
	if float64(pl) > 1.5*float64(ps) {
		t.Errorf("token state grew with call-tree size: fib(8) peak %d, fib(16) peak %d", ps, pl)
	}
}
