package core

import (
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/mem"
)

// TestTheorem1Property is Theorem 1 as a property: for ANY tag budget >= 2
// and ANY issue width >= 1, TYR completes the nested-loop program with the
// correct result and respects the Theorem 2 token bound.
func TestTheorem1Property(t *testing.T) {
	g := compileNested(t, 9, 7)
	want := int64(9 * (6 * 7 / 2))
	bound := func(tags int) int64 {
		return int64(tags) * int64(g.NumNodes()) * int64(g.MaxInputs())
	}
	f := func(tagsRaw, widthRaw uint8) bool {
		tags := 2 + int(tagsRaw%96)
		width := 1 + int(widthRaw)
		res, err := Run(g, mem.NewImage(), Config{
			Policy:       PolicyTyr,
			TagsPerBlock: tags,
			IssueWidth:   width,
			Sanitize:     true,
		})
		if err != nil || !res.Completed {
			return false
		}
		return res.ResultValue == want && res.PeakLive <= bound(tags)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPerBlockBudgetProperty extends the property to heterogeneous
// budgets: any mix of per-block tag counts >= 2 completes correctly.
func TestPerBlockBudgetProperty(t *testing.T) {
	g := compileNested(t, 8, 8)
	want := int64(8 * (7 * 8 / 2))
	f := func(outerRaw, innerRaw uint8) bool {
		cfg := Config{
			Policy:       PolicyTyr,
			TagsPerBlock: 8,
			BlockTags: map[string]int{
				"outer": 2 + int(outerRaw%32),
				"inner": 2 + int(innerRaw%32),
			},
			Sanitize: true,
		}
		res, err := Run(g, mem.NewImage(), cfg)
		return err == nil && res.Completed && res.ResultValue == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLatencyProperty: any load latency changes timing only, never values
// (checked on a load-heavy workload with the oracle).
func TestLatencyProperty(t *testing.T) {
	app := apps.Dmv(10, 10, 21)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}
	f := func(latRaw uint8) bool {
		im := app.NewImage()
		res, err := Run(g, im, Config{
			Policy:       PolicyTyr,
			TagsPerBlock: 4,
			Memory:       mem.LoadLatency(latRaw % 50),
			Sanitize:     true,
		})
		if err != nil || !res.Completed {
			return false
		}
		return app.Check(im, res.ResultValue) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
