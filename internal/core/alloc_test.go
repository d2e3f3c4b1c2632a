package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/ordered"
)

// TestRunAllocsFlatInTripCount: a graph machine allocates for its graph
// and its peak state, never per dynamic instruction. The nested loop runs
// at three inner trip counts, a hundred times apart end to end, on the
// tagged machine under tyr, local-nogate and k-bound at 4 tags (so its
// tag lists, directory pages, stores, ready queue and outbox stay small
// and are reused; local-nogate deadlocks early, which is a result like any
// other) and under global-bounded at 8, and on the ordered machine.
// global-bounded runs one outer iteration: with eight, its outer loop
// takes the budget and the run deadlocks at the same cycle whatever the
// trip count, while one completes at every trip count. Each run's allocations, counted one by one, must not grow with
// the trip count. A ready queue that is never reset or compacted would
// grow with every iteration. The live-state trace is off: it grows with
// the run's length up to its cap of points, by design. Each count is the
// least of five: under the race detector fmt's printer pool drops entries
// at random, so a run's result formatting may allocate once more.
func TestRunAllocsFlatInTripCount(t *testing.T) {
	machines := []struct {
		name string
		run  func(t *testing.T, inner int64) func()
	}{
		{"tyr", tagged(8, Config{Policy: PolicyTyr})},
		{"local-nogate", tagged(8, Config{Policy: PolicyLocalNoGate})},
		{"kbound", tagged(8, Config{Policy: PolicyKBound})},
		{"global-bounded", tagged(1, Config{Policy: PolicyGlobalBounded, GlobalTags: 8})},
		{"ordered", func(t *testing.T, inner int64) func() {
			g, err := compile.Ordered(nestedLoopProgram(8, inner), compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := ordered.Run(g, mem.NewImage(), ordered.Config{TracePoints: -1}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, mc := range machines {
		var counts []uint64
		for _, inner := range []int64{10, 100, 1000} {
			run := mc.run(t, inner)
			least := mallocs(1, run)
			for i := 1; i < 5; i++ {
				least = min(least, mallocs(1, run))
			}
			counts = append(counts, least)
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("%s: %v allocations at inner trip counts 10, 100, 1000", mc.name, counts)
		}
	}
}

// tagged runs the nested loop with outer iterations on the tagged
// machine under cfg, at 4 tags per block, with the live-state trace off.
func tagged(outer int64, cfg Config) func(t *testing.T, inner int64) func() {
	cfg.TagsPerBlock, cfg.TracePoints = 4, -1
	return func(t *testing.T, inner int64) func() {
		g := compileNested(t, outer, inner)
		return func() {
			if _, err := Run(g, mem.NewImage(), cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}
