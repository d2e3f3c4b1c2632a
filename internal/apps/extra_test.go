package apps

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ordered"
	"repro/internal/seqdf"
	"repro/internal/vn"
)

// runEverywhere executes an app on all machines and validates each output.
func runEverywhere(t *testing.T, app *App) {
	t.Helper()

	im := app.NewImage()
	vr, err := vn.Run(app.Prog, im, vn.Config{Args: app.Args})
	if err != nil {
		t.Fatalf("vn: %v", err)
	}
	if err := app.Check(im, vr.Ret); err != nil {
		t.Fatalf("vn output: %v", err)
	}

	im2 := app.NewImage()
	sr, err := seqdf.Run(app.Prog, im2, seqdf.Config{Args: app.Args})
	if err != nil {
		t.Fatalf("seqdf: %v", err)
	}
	if err := app.Check(im2, sr.Ret); err != nil {
		t.Fatalf("seqdf output: %v", err)
	}

	tg, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatalf("Tagged: %v", err)
	}
	for _, cfg := range []core.Config{
		{Policy: core.PolicyTyr, TagsPerBlock: 2, Sanitize: true},
		{Policy: core.PolicyTyr, TagsPerBlock: 64, Sanitize: true},
		{Policy: core.PolicyGlobalUnlimited, Sanitize: true},
	} {
		im := app.NewImage()
		res, err := core.Run(tg, im, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Policy, err)
		}
		if !res.Completed {
			t.Fatalf("%v: %v", cfg.Policy, res.Deadlock)
		}
		if err := app.Check(im, res.ResultValue); err != nil {
			t.Errorf("%v output: %v", cfg.Policy, err)
		}
	}

	og, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatalf("Ordered: %v", err)
	}
	im3 := app.NewImage()
	or, err := ordered.Run(og, im3, ordered.Config{})
	if err != nil {
		t.Fatalf("ordered: %v", err)
	}
	if err := app.Check(im3, or.ResultValue); err != nil {
		t.Errorf("ordered output: %v", err)
	}
}

func TestHistogramEverywhere(t *testing.T) {
	runEverywhere(t, Histogram(200, 16, 11))
}

func TestHistogramSkewedBins(t *testing.T) {
	runEverywhere(t, Histogram(100, 3, 12))
}

func TestBfsEverywhere(t *testing.T) {
	runEverywhere(t, Bfs(48, 4, 0.2, 13, 0))
}

func TestBfsFromNonzeroSource(t *testing.T) {
	runEverywhere(t, Bfs(32, 4, 0.3, 14, 17))
}

func TestBfsReferenceSanity(t *testing.T) {
	// On a beta=0 ring lattice with k=4, distances are ceil(ringdist/2).
	app := Bfs(16, 4, 0, 15, 0)
	im := app.NewImage()
	res, err := vn.Run(app.Prog, im, vn.Config{Args: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	dist := im.WordsByName("dist")
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 1 || dist[3] != 2 || dist[8] != 4 {
		t.Errorf("ring distances wrong: %v", dist)
	}
	if err := app.Check(im, res.Ret); err != nil {
		t.Error(err)
	}
}

// TestClassSerializationCost: the histogram's RMW chain bounds even
// unordered dataflow — its cycle count is at least the chain length —
// while classless workloads (dmv) blow past that bound. This documents
// the ordering-class cost model.
func TestClassSerializationCost(t *testing.T) {
	app := Histogram(128, 8, 16)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, app.NewImage(), core.Config{Policy: core.PolicyGlobalUnlimited})
	if err != nil {
		t.Fatal(err)
	}
	// 128 samples x (load + store) chained = at least 256 dependent steps.
	if res.Cycles < 256 {
		t.Errorf("cycles %d below the serialized RMW chain length", res.Cycles)
	}
}
