package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sec. VII), plus machine-throughput microbenchmarks. Each
// figure benchmark regenerates its experiment end to end — workload
// generation, compilation, simulation on every system involved, and output
// validation — and reports the experiment's headline quantity via
// b.ReportMetric so `go test -bench` output doubles as a results table.
//
//	go test -bench=. -benchmem
//
// Benchmarks run at the tiny input scale so a full sweep stays fast; use
// cmd/tyrexp -scale small|medium for the real experiment reports.

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trace"
)

func benchCfg() harness.ExpConfig {
	return harness.ExpConfig{Scale: apps.ScaleTiny, IssueWidth: 128, Tags: 64}
}

// BenchmarkTable2Apps regenerates Table II: every workload compiled and
// profiled under the vN reference.
func BenchmarkTable2Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Table2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2StateTrace regenerates the page-1 spmspm state traces on
// all five systems.
func BenchmarkFig2StateTrace(b *testing.B) {
	var last *harness.TraceData
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(float64(last.Stats[harness.SysUnordered].PeakLive), "unordered-peak")
	b.ReportMetric(float64(last.Stats[harness.SysTyr].PeakLive), "tyr-peak")
}

// BenchmarkFig9TagTraces regenerates the dmv tag-width traces.
func BenchmarkFig9TagTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig9(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Deadlock regenerates the bounded-global-tags deadlock.
func BenchmarkFig11Deadlock(b *testing.B) {
	var last *harness.Fig11Data
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig11(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !d.Deadlocked || !d.TyrCompleted {
			b.Fatalf("deadlock story broke: %+v", d)
		}
		last = d
	}
	b.ReportMetric(float64(last.UnlimitedTagsNeeded), "contexts-needed")
}

// BenchmarkFig12ExecTime regenerates the execution-time comparison across
// all seven apps and five systems.
func BenchmarkFig12ExecTime(b *testing.B) {
	var last *harness.Fig12Data
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig12(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(last.GmeanSlowdownVsTyr[harness.SysVN], "vN-slowdown-x")
	b.ReportMetric(last.GmeanSlowdownVsTyr[harness.SysOrdered], "ordered-slowdown-x")
	b.ReportMetric(last.GmeanSlowdownVsTyr[harness.SysUnordered], "unordered-vs-tyr-x")
}

// BenchmarkFig13IPCDistribution regenerates the IPC distributions.
func BenchmarkFig13IPCDistribution(b *testing.B) {
	var last *harness.Fig13Data
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig13(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(float64(last.Median[harness.SysTyr]), "tyr-median-ipc")
	b.ReportMetric(float64(last.Median[harness.SysOrdered]), "ordered-median-ipc")
}

// BenchmarkFig14LiveState regenerates the live-token comparison.
func BenchmarkFig14LiveState(b *testing.B) {
	var last *harness.Fig14Data
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig14(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(last.GmeanPeakReductionVsUnordered, "peak-reduction-x")
}

// BenchmarkFig15WidthSweep regenerates the issue-width scalability sweep.
func BenchmarkFig15WidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig15(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16TagSweep regenerates the tags-per-block sweep on spmspm.
func BenchmarkFig16TagSweep(b *testing.B) {
	var last *harness.Fig16Data
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig16(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(float64(last.Cycles[2])/float64(last.Cycles[64]), "speedup-2to64-tags-x")
}

// BenchmarkFig17Sensitivity regenerates the width x tags grid on spmspv.
func BenchmarkFig17Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig17(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18RegionTuning regenerates the per-region tag tuning result.
func BenchmarkFig18RegionTuning(b *testing.B) {
	var last *harness.Fig18Data
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Fig18(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(last.PeakReduction*100, "peak-reduction-%")
	b.ReportMetric(last.SlowdownPercent, "slowdown-%")
}

// BenchmarkAblationTagSchemes regenerates the Sec. VIII tag-scheme
// ablation (TYR vs local-nogate vs k-bounding vs unordered).
func BenchmarkAblationTagSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, _, err := harness.AblTags(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range d.Rows {
			if r.Scheme == "tyr" && !r.Completed {
				b.Fatalf("TYR failed in ablation: %+v", r)
			}
		}
	}
}

// BenchmarkAblationQueueDepth regenerates the ordered-dataflow FIFO-depth
// sweep.
func BenchmarkAblationQueueDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.AblQueue(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUarchStudy regenerates the token-store implementation study.
func BenchmarkUarchStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Uarch(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range d.Rows {
			if r.Scheme == "tyr" && r.PeakStorePerInstr > 64 {
				b.Fatalf("TYR token store exceeded the tag bound: %+v", r)
			}
		}
	}
}

// BenchmarkLatencyTolerance regenerates the memory-latency sweep.
func BenchmarkLatencyTolerance(b *testing.B) {
	var last *harness.LatencyData
	for i := 0; i < b.N; i++ {
		d, _, err := harness.Latency(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(last.Slowdown[harness.SysVN], "vN-slowdown-x")
	b.ReportMetric(last.Slowdown[harness.SysTyr], "tyr-slowdown-x")
	b.ReportMetric(last.Slowdown[harness.SysUnordered], "unordered-slowdown-x")
}

// ---- machine microbenchmarks ----

// BenchmarkTyrMachineThroughput measures raw simulated instruction
// throughput of the TYR machine on dmm.
func BenchmarkTyrMachineThroughput(b *testing.B) {
	app := apps.Dmm(16, 1)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fired int64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, app.NewImage(), core.Config{Policy: core.PolicyTyr, TagsPerBlock: 64})
		if err != nil {
			b.Fatal(err)
		}
		fired += res.Fired
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkUnorderedMachineThroughput measures the same under the
// unlimited global tag policy.
func BenchmarkUnorderedMachineThroughput(b *testing.B) {
	app := apps.Dmm(16, 1)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fired int64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, app.NewImage(), core.Config{Policy: core.PolicyGlobalUnlimited})
		if err != nil {
			b.Fatal(err)
		}
		fired += res.Fired
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkTraceOverhead measures the cost of the event layer: the same
// dmv run with no tracer, and with a recorder attached. The no-tracer
// path must stay within 5% of the traced path's baseline — i.e. the hook
// is a nil check, not a tax; if disabled tracing ever costs more than
// 5% of a traced run the guard fails the benchmark.
func BenchmarkTraceOverhead(b *testing.B) {
	app := apps.Find(apps.Suite(apps.ScaleTiny), "dmv")
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, rec *trace.Recorder) time.Duration {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec != nil {
				rec.Reset()
			}
			if _, err := core.Run(g, app.NewImage(), core.Config{
				Policy: core.PolicyTyr, TagsPerBlock: 64, Tracer: rec,
			}); err != nil {
				b.Fatal(err)
			}
		}
		return b.Elapsed() / time.Duration(b.N)
	}

	var off, on time.Duration
	b.Run("disabled", func(b *testing.B) { off = run(b, nil) })
	b.Run("enabled", func(b *testing.B) { on = run(b, trace.NewRecorder(0)) })
	if off > 0 && on > 0 {
		ratio := float64(off) / float64(on)
		b.ReportMetric(ratio, "disabled/enabled")
		if float64(off) > float64(on)*1.05 {
			b.Errorf("tracing disabled (%v/op) costs more than 5%% over a traced run (%v/op)", off, on)
		}
	}
}

// BenchmarkCompileTagged measures compilation speed of the largest
// workload graph.
func BenchmarkCompileTagged(b *testing.B) {
	app := apps.Find(apps.Suite(apps.ScaleTiny), "tc")
	for i := 0; i < b.N; i++ {
		if _, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileOrdered measures the ordered lowering (including
// inlining).
func BenchmarkCompileOrdered(b *testing.B) {
	app := apps.Find(apps.Suite(apps.ScaleTiny), "tc")
	for i := 0; i < b.N; i++ {
		if _, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args}); err != nil {
			b.Fatal(err)
		}
	}
}
