package apps

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/ordered"
	"repro/internal/prog"
	"repro/internal/seqdf"
	"repro/internal/vn"
)

// TestSuiteOnAllArchitectures is the central integration test: every
// workload of Table II runs on every simulated architecture, and every
// output is validated against the native Go reference.
func TestSuiteOnAllArchitectures(t *testing.T) {
	for _, app := range Suite(ScaleTiny) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			if err := prog.Check(app.Prog); err != nil {
				t.Fatalf("Check: %v", err)
			}

			// Reference interpreter (vN cost model doubles as oracle).
			imRef := app.NewImage()
			vnRes, err := vn.Run(app.Prog, imRef, vn.Config{Args: app.Args})
			if err != nil {
				t.Fatalf("vn: %v", err)
			}
			if err := app.Check(imRef, vnRes.Ret); err != nil {
				t.Fatalf("vn output: %v", err)
			}

			// Sequential dataflow model.
			imSeq := app.NewImage()
			sdRes, err := seqdf.Run(app.Prog, imSeq, seqdf.Config{Args: app.Args})
			if err != nil {
				t.Fatalf("seqdf: %v", err)
			}
			if err := app.Check(imSeq, sdRes.Ret); err != nil {
				t.Fatalf("seqdf output: %v", err)
			}
			if sdRes.Cycles > vnRes.Cycles {
				t.Errorf("seqdf (%d cycles) slower than vN (%d)", sdRes.Cycles, vnRes.Cycles)
			}

			// Tagged graph: TYR (2 and 64 tags) and naive unordered.
			tg, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
			if err != nil {
				t.Fatalf("Tagged: %v", err)
			}
			for _, tc := range []struct {
				label string
				cfg   core.Config
			}{
				{"tyr2", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 2, Sanitize: true}},
				{"tyr64", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 64, Sanitize: true}},
				{"unordered", core.Config{Policy: core.PolicyGlobalUnlimited, Sanitize: true}},
			} {
				im := app.NewImage()
				res, err := core.Run(tg, im, tc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", tc.label, err)
				}
				if !res.Completed {
					t.Fatalf("%s: %v", tc.label, res.Deadlock)
				}
				if err := app.Check(im, res.ResultValue); err != nil {
					t.Errorf("%s output: %v", tc.label, err)
				}
			}

			// Ordered dataflow.
			og, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
			if err != nil {
				t.Fatalf("Ordered: %v", err)
			}
			imOrd := app.NewImage()
			ores, err := ordered.Run(og, imOrd, ordered.Config{})
			if err != nil {
				t.Fatalf("ordered: %v", err)
			}
			if err := app.Check(imOrd, ores.ResultValue); err != nil {
				t.Errorf("ordered output: %v", err)
			}
		})
	}
}

func TestSuiteShapes(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium} {
		suite := Suite(s)
		if len(suite) != 7 {
			t.Fatalf("scale %v: %d apps, want 7", s, len(suite))
		}
		names := map[string]bool{}
		for _, a := range suite {
			names[a.Name] = true
			if a.Inner == "" || a.Outer == "" {
				t.Errorf("%s: missing Inner/Outer block names", a.Name)
			}
			if a.Image == nil || a.Prog == nil || a.Check == nil {
				t.Errorf("%s: incomplete app", a.Name)
			}
		}
		for _, want := range []string{"dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc"} {
			if !names[want] {
				t.Errorf("scale %v missing %s", s, want)
			}
		}
	}
}

func TestFind(t *testing.T) {
	suite := Suite(ScaleTiny)
	if Find(suite, "dmv") == nil {
		t.Error("Find(dmv) = nil")
	}
	if Find(suite, "nope") != nil {
		t.Error("Find(nope) != nil")
	}
}

func TestNewImageIsolation(t *testing.T) {
	app := Dmv(4, 4, 1)
	im1, im2 := app.NewImage(), app.NewImage()
	if err := im1.Store(0, 0, 12345); err != nil {
		t.Fatal(err)
	}
	if v, _ := im2.Load(0, 0); v == 12345 {
		t.Error("NewImage returns shared state")
	}
}

// TestCheckersRejectWrongOutput guards the oracles themselves.
func TestCheckersRejectWrongOutput(t *testing.T) {
	app := Dmv(4, 4, 1)
	im := app.NewImage()
	if _, err := vn.Run(app.Prog, im, vn.Config{Args: app.Args}); err != nil {
		t.Fatal(err)
	}
	w := im.WordsByName("W")
	w[0]++
	if err := app.Check(im, 0); err == nil {
		t.Error("corrupted output passed Check")
	}
}

// TestLoweringIsCompiledOnce pins the graph memo behind App.Tagged and
// App.Ordered: goroutines racing the first call all get one graph, later
// calls return that same pointer, and the graph is the one a fresh compile
// builds.
func TestLoweringIsCompiledOnce(t *testing.T) {
	app := Find(Suite(ScaleTiny), "dmv")
	for _, l := range []struct {
		name   string
		memo   func() (*dfg.Graph, error)
		direct func(*prog.Program, compile.Options) (*dfg.Graph, error)
	}{
		{"tagged", app.Tagged, compile.Tagged},
		{"ordered", app.Ordered, compile.Ordered},
	} {
		const racers = 8
		got := make([]*dfg.Graph, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				g, err := l.memo()
				if err != nil {
					t.Errorf("%s: %v", l.name, err)
				}
				got[i] = g
			}(i)
		}
		close(start)
		wg.Wait()
		g, err := l.memo()
		if err != nil || g == nil {
			t.Fatalf("%s: graph %v, err %v", l.name, g, err)
		}
		for i, gi := range got {
			if gi != g {
				t.Errorf("%s: racer %d got graph %p, later call %p", l.name, i, gi, g)
			}
		}
		fresh, err := l.direct(app.Prog, compile.Options{EntryArgs: app.Args})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		text, err := g.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text, want) {
			t.Errorf("%s: memoized graph differs from a fresh compile", l.name)
		}
	}
}

// TestLoweringPanicRepeats pins that a lowering which panics leaves no nil
// graph behind: every later call panics with the same value.
func TestLoweringPanicRepeats(t *testing.T) {
	app := &App{Name: "noprog"} // a nil program makes the compiler panic
	lower := func() (v any) {
		defer func() { v = recover() }()
		g, err := app.Tagged()
		t.Errorf("Tagged returned graph %v, err %v; want a panic", g, err)
		return nil
	}
	first := lower()
	if first == nil {
		t.Fatal("first call did not panic")
	}
	if again := lower(); fmt.Sprint(again) != fmt.Sprint(first) {
		t.Errorf("second call panicked with %v, want %v", again, first)
	}
}
