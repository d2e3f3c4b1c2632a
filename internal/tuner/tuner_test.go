package tuner

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mem"
)

func tuneApp(t *testing.T, app *apps.App, opts Options) Result {
	t.Helper()
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(g, app.NewImage, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTuneReducesStateWithinSlowdown(t *testing.T) {
	app := apps.Dmm(24, 3)
	res := tuneApp(t, app, Options{MaxSlowdown: 0.05})
	if !res.Tuned.Completed {
		t.Fatal("tuned configuration did not complete")
	}
	if res.Tuned.PeakLive > res.Baseline.PeakLive {
		t.Errorf("tuned peak %d exceeds baseline %d", res.Tuned.PeakLive, res.Baseline.PeakLive)
	}
	if res.Slowdown() > 0.05+1e-9 {
		t.Errorf("slowdown %.3f exceeds the 5%% budget", res.Slowdown())
	}
	// dmm has abundant surplus outer parallelism; the search should find
	// real savings.
	if res.PeakReduction() <= 0 {
		t.Errorf("no peak reduction found (%.3f); dmm should have slack", res.PeakReduction())
	}
	if len(res.Steps) == 0 {
		t.Error("no accepted steps recorded")
	}
}

func TestTunePreservesCorrectness(t *testing.T) {
	app := apps.Dmm(16, 4)
	res := tuneApp(t, app, Options{})
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	im := app.NewImage()
	final, err := core.Run(g, im, core.Config{
		Policy: core.PolicyTyr, TagsPerBlock: 64, BlockTags: res.BlockTags,
		Sanitize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Completed {
		t.Fatal("tuned budgets deadlocked (must be impossible with tags >= 2)")
	}
	if err := app.Check(im, final.ResultValue); err != nil {
		t.Errorf("tuned run produced wrong output: %v", err)
	}
}

func TestTuneRespectsMinTags(t *testing.T) {
	app := apps.Dmv(24, 24, 5)
	res := tuneApp(t, app, Options{MinTags: 8})
	for blk, tags := range res.BlockTags {
		if tags < 8 {
			t.Errorf("block %s tuned to %d tags, floor is 8", blk, tags)
		}
	}
}

func TestTuneTrialBudget(t *testing.T) {
	app := apps.Dmv(16, 16, 6)
	res := tuneApp(t, app, Options{MaxTrials: 3})
	if res.Trials > 3 {
		t.Errorf("%d trials, cap was 3", res.Trials)
	}
}

func TestTuneDeterministic(t *testing.T) {
	app := apps.Dmm(16, 7)
	a := tuneApp(t, app, Options{})
	b := tuneApp(t, app, Options{})
	if a.Tuned.PeakLive != b.Tuned.PeakLive || a.Trials != b.Trials || len(a.Steps) != len(b.Steps) {
		t.Errorf("nondeterministic tuning: %+v vs %+v", a, b)
	}
	for k, v := range a.BlockTags {
		if b.BlockTags[k] != v {
			t.Errorf("budget mismatch for %s: %d vs %d", k, v, b.BlockTags[k])
		}
	}
}

func TestTuneErrorsOnMissingRegions(t *testing.T) {
	app := apps.Dmv(8, 8, 8)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tune(g, func() *mem.Image { return mem.NewImage() }, Options{}); err == nil {
		t.Error("missing regions should surface as an error")
	}
}
