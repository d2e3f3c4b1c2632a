package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/ordered"
)

// Latency must change timing only: results and final memory are identical
// across any load latency, on both tagged policies.
func TestLoadLatencyPreservesResults(t *testing.T) {
	app := apps.Smv(48, 3, 4, 9)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	var baseline Result
	for i, lat := range []int{1, 3, 17} {
		im := app.NewImage()
		res, err := Run(g, im, Config{
			Policy: PolicyTyr, TagsPerBlock: 8, Memory: mem.LoadLatency(lat), Sanitize: true,
		})
		if err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		if !res.Completed {
			t.Fatalf("latency %d: %v", lat, res.Deadlock)
		}
		if err := app.Check(im, res.ResultValue); err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		if i == 0 {
			baseline = res
		} else if res.Cycles <= baseline.Cycles {
			t.Errorf("latency %d (%d cycles) not slower than latency 1 (%d)", lat, res.Cycles, baseline.Cycles)
		}
	}
}

func TestLoadLatencyTaggedHidesBetterThanNarrowTags(t *testing.T) {
	// More tags buy latency tolerance: the same workload at the same
	// latency finishes faster with a larger tag budget.
	app := apps.Smv(96, 4, 5, 10)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tags int) int64 {
		res, err := Run(g, app.NewImage(), Config{
			Policy: PolicyTyr, TagsPerBlock: tags, Memory: mem.LoadLatency(32),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("did not complete")
		}
		return res.Cycles
	}
	narrow, wide := run(2), run(64)
	if wide >= narrow {
		t.Errorf("64 tags (%d cycles) should beat 2 tags (%d) under latency", wide, narrow)
	}
}

func TestLoadLatencyIdleCyclesCounted(t *testing.T) {
	// A serial pointer-chase cannot hide latency: the machine must burn
	// idle cycles, visible as ipc=0 entries.
	app := apps.FibStack(8) // fully serialized through the stack class
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, app.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 4, Memory: mem.LoadLatency(20)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.IPCHist[0] == 0 {
		t.Error("expected idle cycles under a serialized chain with high latency")
	}
	if err := app.Check(nil, res.ResultValue); err != nil {
		t.Error(err)
	}
}

func TestLoadLatencyOrderedPreservesResults(t *testing.T) {
	app := apps.Smv(48, 3, 4, 11)
	g, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	var base int64
	for i, lat := range []int{1, 8, 32} {
		im := app.NewImage()
		res, err := ordered.Run(g, im, ordered.Config{Memory: mem.LoadLatency(lat)})
		if err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		if err := app.Check(im, res.ResultValue); err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		if i == 0 {
			base = res.Cycles
		} else if res.Cycles <= base {
			t.Errorf("ordered at latency %d (%d cycles) not slower than base (%d)", lat, res.Cycles, base)
		}
	}
}

func TestLoadLatencyFreeBarrierStillHolds(t *testing.T) {
	// The barrier must wait for delayed load results: with invariant
	// checks on, any premature free would be caught as a token leak.
	g := compileNested(t, 12, 12)
	res, err := Run(g, mem.NewImage(), Config{
		Policy: PolicyTyr, TagsPerBlock: 2, Memory: mem.LoadLatency(25), Sanitize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %v", res.Deadlock)
	}
}
