// Per-region tag tuning (the paper's Fig. 18 and Sec. IV-D): local tag
// spaces give each program region its own parallelism knob. Restricting
// the outer loop of dense matrix-matrix multiplication to a few tags
// trims surplus outer-loop parallelism — reducing peak live state with
// almost no slowdown — while the hot inner loop keeps its full budget.
//
//	go run ./examples/tagtuning
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/tuner"
)

func main() {
	app := apps.Dmm(36, 7)
	fmt.Printf("workload: %s — %s\n", app.Name, app.Description)
	fmt.Printf("blocks: outer loop %q, hot inner loop %q\n\n", app.Outer, app.Inner)

	type config struct {
		name      string
		blockTags map[string]int
	}
	configs := []config{
		{"uniform 64 tags/block", nil},
		{"outer loop capped at 8", map[string]int{app.Outer: 8}},
		{"outer loop capped at 4", map[string]int{app.Outer: 4}},
		{"outer 4, middle 8", map[string]int{app.Outer: 4, "dmm.j": 8}},
	}

	tb := &metrics.Table{Headers: []string{"config", "cycles", "peak live", "mean live", "peak vs baseline"}}
	var base metrics.RunStats
	var series []metrics.Series
	for i, c := range configs {
		rs, err := harness.Run(app, harness.SysTyr, harness.SysConfig{
			IssueWidth: 128, Tags: 64, BlockTags: c.blockTags, TracePoints: 512,
		})
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		if i == 0 {
			base = rs
		}
		tb.Add(c.name,
			metrics.FormatCount(rs.Cycles),
			metrics.FormatCount(rs.PeakLive),
			fmt.Sprintf("%.0f", rs.MeanLive),
			fmt.Sprintf("%.1f%%", 100*float64(rs.PeakLive)/float64(base.PeakLive)))
		series = append(series, metrics.Series{
			Name:   fmt.Sprintf("%c: %s", 'a'+i, c.name),
			Points: rs.Trace,
		})
	}
	fmt.Print(tb.String())
	fmt.Println()
	fmt.Print(metrics.RenderTraces("live state over time per config", series, 76, 14))
	fmt.Println("\nAll four configurations produce identical, validated outputs;")
	fmt.Println("only where parallelism is spent changes.")

	// Sec. VII-E suggests runtime systems could search these budgets
	// automatically; internal/tuner implements that search.
	fmt.Println("\n--- automatic search (internal/tuner) ---")
	g, err := app.Tagged()
	if err != nil {
		log.Fatal(err)
	}
	tres, err := tuner.Tune(g, app.NewImage, tuner.Options{MaxSlowdown: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range tres.Steps {
		fmt.Printf("  accepted: %-10s %3d -> %3d tags   (peak %s, %s cycles)\n",
			step.Block, step.From, step.To,
			metrics.FormatCount(step.PeakLive), metrics.FormatCount(step.Cycles))
	}
	fmt.Printf("tuned budgets %v: peak state -%.1f%% at %+.1f%% cycles (%d trial simulations)\n",
		tres.BlockTags, tres.PeakReduction()*100, tres.Slowdown()*100, tres.Trials)
}
