// Command tyrsim runs one workload on one architecture and prints its
// metrics — the quick way to poke at a single configuration.
//
// Usage:
//
//	tyrsim -app spmspm -system tyr [-scale small] [-width 128] [-tags 64]
//	       [-global-tags 8] [-plot] [-check] [-graph graph.asm]
//	       [-cache] [-l1 sets=32,ways=2,line=4,lat=1] [-l2 ...] [-mem-lat 30] [-mshrs 8]
//	       [-trace out.json] [-profile] [-heat] [-json telemetry.json]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -graph runs a graph loaded from an assembly-text file (the form -asm and
// tyrc -emit asm print) instead of compiling; graph systems only. The
// loaded graph passes the structural validator and the static verifier
// (analysis.Vet, against the selected workload's program) before it
// reaches an engine: a graph that fails either is reported and tyrsim
// exits 1. -check, -blocks, -heat, -asm and -dot inspect the loaded
// graph, not a fresh compile.
//
// The flags assemble a tyr-api/v1 request (internal/api) — the same surface
// the tyrd service speaks — so a tyrsim invocation and a curl against
// /v1/run mean the same simulation. Shared flag groups live in
// internal/cliflags.
//
// -system accepts vN, seqdf, ordered, unordered, tyr. With -global-tags N,
// the unordered system uses a bounded global pool (the Fig. 11 deadlock
// configuration). -plot prints the live-state-over-time plot. -check runs
// the static verifier on the compiled graph first and then executes with
// the runtime sanitizer enabled. -cache routes loads and stores through
// the two-level memory hierarchy (internal/cache) and prints per-level
// hit/miss counters; -l1/-l2/-mem-lat/-mshrs override its geometry and
// imply -cache.
//
// Observability: -trace PATH records the run's event stream and writes it
// as Chrome trace-event JSON (load into chrome://tracing or Perfetto);
// -profile prints the critical-path profile (per-node/block/op cycle
// attribution and the longest fire chain); -heat prints the compiled graph
// in dot form with a per-node fire-count heatmap overlay; -json PATH
// writes the run's RunStats as tyr-telemetry/v1 JSON. -cpuprofile and
// -memprofile capture pprof profiles of the simulator itself (see
// internal/profflag) — e.g.
//
//	tyrsim -app spmspm -system tyr -cpuprofile cpu.out && go tool pprof -top cpu.out
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/cliflags"
	"repro/internal/dfg"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/profflag"
	"repro/internal/trace"
)

// fixedGraph is the GraphSource for a graph resolved before the run:
// every lookup returns that one graph, regardless of lowering, so the run
// executes exactly the graph -check vetted and -blocks and -heat report
// on. A -graph file's lowering is the user's responsibility; the validator
// and the reference cross-check catch a mismatch.
type fixedGraph struct{ g *dfg.Graph }

func (f fixedGraph) Tagged(*apps.App) (*dfg.Graph, error)  { return f.g, nil }
func (f fixedGraph) Ordered(*apps.App) (*dfg.Graph, error) { return f.g, nil }

func main() {
	appName := flag.String("app", "dmv", "workload: dmv, dmm, dconv, smv, spmspv, spmspm, tc")
	machine := cliflags.RegisterMachine(flag.CommandLine, "tyr")
	scale := cliflags.RegisterScale(flag.CommandLine, "small")
	globalTags := flag.Int("global-tags", 0, "bounded global tag pool for unordered (0 = unlimited)")
	cacheFlags := cliflags.RegisterCache(flag.CommandLine)
	obs := cliflags.RegisterObserve(flag.CommandLine)
	plot := flag.Bool("plot", false, "print the live-state trace plot")
	heat := flag.Bool("heat", false, "print the graph in dot form with a fire-count heatmap (graph systems only)")
	jsonPath := flag.String("json", "", "write the run's stats as tyr-telemetry/v1 JSON to this path")
	dot := flag.Bool("dot", false, "print the compiled dataflow graph in Graphviz dot form and exit")
	asm := flag.Bool("asm", false, "print the compiled dataflow graph in assembly form and exit")
	graphPath := flag.String("graph", "", "run the graph in this assembly-text file instead of compiling (graph systems only)")
	list := flag.Bool("list", false, "list the available workloads and exit")
	blocks := flag.Bool("blocks", false, "print per-block tag usage and live state (tyr/unordered only)")
	check := flag.Bool("check", false, "run the static verifier before executing and the runtime sanitizer during execution")
	prof := profflag.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
		os.Exit(1)
	}
	// Error paths below os.Exit without the profile — a failed run has
	// nothing worth profiling.
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
			os.Exit(1)
		}
	}()

	if *list {
		for _, a := range apps.Suite(apps.ScaleSmall) {
			fmt.Printf("%-8s %s\n", a.Name, a.Description)
		}
		return
	}

	// The flags assemble a tyr-api/v1 request — the same surface a curl
	// against tyrd speaks — and the request's Plan resolves the workload
	// and the harness configuration.
	req := api.Request{
		App:        *appName,
		Scale:      *scale,
		System:     machine.System,
		IssueWidth: machine.Width,
		Tags:       machine.Tags,
		GlobalTags: *globalTags,
		SkipCheck:  *globalTags > 0, // a deadlocked run has no output to validate
		Cache:      cacheFlags.Spec(),
	}
	if *plot {
		// The live-state trace is opt-in in tyr-api/v1.
		req.TracePoints = metrics.DefaultTracePoints
	}
	plan, err := req.Plan()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
		os.Exit(2)
	}
	app, err := plan.ResolveApp()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
		os.Exit(2)
	}

	// Resolve the one graph this invocation inspects and runs: the -graph
	// file when set, otherwise the app's own graph for the system's
	// lowering (ordered for ordered, tagged for every other system) when a
	// flag looks at the graph. The harness runs that same graph.
	var g *dfg.Graph
	if *graphPath != "" {
		if machine.System == harness.SysVN || machine.System == harness.SysSeqDF {
			fmt.Fprintf(os.Stderr, "tyrsim: -graph needs a graph system (ordered, unordered, tyr), not %s\n", machine.System)
			os.Exit(2)
		}
		g, err = loadGraph(*graphPath, machine.System)
	} else if *dot || *asm || *check || *heat {
		if machine.System == harness.SysOrdered {
			g, err = app.Ordered()
		} else {
			g, err = app.Tagged()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
		os.Exit(1)
	}

	switch {
	case *dot:
		fmt.Print(g.Dot())
		return
	case *asm:
		text, err := g.MarshalText()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(text)
		return
	}

	cfg := plan.Cfg
	if *graphPath != "" {
		// The run executes the loaded graph, so -check, -blocks and -heat
		// describe the graph that ran. It is still cross-checked against
		// the reference interpreter running app.Prog, so one that does not
		// implement the selected workload fails validation rather than
		// passing silently.
		cfg.Compiler = fixedGraph{g: g}
	}
	var rec *trace.Recorder
	if obs.Enabled() || *heat {
		if *heat && (machine.System == harness.SysVN || machine.System == harness.SysSeqDF) {
			fmt.Fprintf(os.Stderr, "tyrsim: -heat needs a graph system (ordered, unordered, tyr), not %s\n", machine.System)
			os.Exit(2)
		}
		rec = trace.NewRecorder(0)
		cfg.Tracer = rec
	}
	var tel harness.Telemetry
	if *jsonPath != "" {
		cfg.Telemetry = &tel
	}

	// A loaded graph did not come from the compiler, so it is always
	// vetted against the program it claims to implement. -check vets a
	// compiled graph too, prints the report even when it is clean, and
	// arms the runtime sanitizer.
	if *check || *graphPath != "" {
		rep := analysis.Vet(g, app.Prog)
		if *check || !rep.OK() {
			fmt.Print(rep)
		}
		if !rep.OK() {
			fmt.Fprintln(os.Stderr, "tyrsim: static verification failed; not running")
			os.Exit(1)
		}
		if *check {
			cfg.Sanitize = true
		}
	}

	rs, err := harness.Run(app, machine.System, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s (%s)\n", app.Name, rs.System, app.Description)
	tb := &metrics.Table{}
	tb.Add("completed", fmt.Sprint(rs.Completed))
	if rs.Deadlocked {
		tb.Add("deadlocked", rs.Note)
	}
	tb.Add("cycles", metrics.FormatCount(rs.Cycles))
	tb.Add("dynamic instructions", metrics.FormatCount(rs.Fired))
	tb.Add("mean IPC", fmt.Sprintf("%.2f", rs.IPC()))
	tb.Add("peak live tokens", metrics.FormatCount(rs.PeakLive))
	tb.Add("mean live tokens", fmt.Sprintf("%.1f", rs.MeanLive))
	if rs.PeakTags > 0 {
		tb.Add("peak tags in use", fmt.Sprint(rs.PeakTags))
	}
	fmt.Print(tb.String())

	if rs.Cache != nil {
		fmt.Printf("\nmemory hierarchy (%s)\n", cfg.Cache.Describe())
		ct := &metrics.Table{Headers: []string{"level", "accesses", "hits", "misses", "miss rate", "writebacks"}}
		for _, lv := range []struct {
			name string
			s    metrics.CacheLevelStats
		}{{"L1", rs.Cache.L1}, {"L2", rs.Cache.L2}} {
			ct.Add(lv.name, metrics.FormatCount(lv.s.Accesses), metrics.FormatCount(lv.s.Hits),
				metrics.FormatCount(lv.s.Misses), fmt.Sprintf("%.1f%%", lv.s.MissRate*100),
				metrics.FormatCount(lv.s.Writebacks))
		}
		fmt.Print(ct.String())
		fmt.Printf("AMAT %.2f cycles; %s MSHR stall cycles\n",
			rs.Cache.AMAT, metrics.FormatCount(rs.Cache.MSHRStallCycles))
	}

	if *blocks && len(rs.Spaces) > 0 {
		bt := &metrics.Table{Headers: []string{"block", "tags", "peak tags used", "allocs", "peak live tokens"}}
		for _, s := range rs.Spaces {
			pool := fmt.Sprint(s.Tags)
			if s.Tags == 0 {
				pool = "unbounded"
			}
			bt.Add(s.Block, pool, fmt.Sprint(s.PeakInUse),
				metrics.FormatCount(s.Allocs), metrics.FormatCount(s.PeakLiveTokens))
		}
		fmt.Println()
		fmt.Print(bt.String())
	}

	if *plot && len(rs.Trace) > 0 {
		fmt.Print(metrics.RenderTraces("live state over time",
			[]metrics.Series{{Name: rs.System, Points: rs.Trace}}, 76, 16))
	}

	if obs.TracePath != "" {
		f, err := os.Create(obs.TracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
			os.Exit(1)
		}
		if err := trace.ExportChrome(f, rec); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (%d events, %d dropped) to %s\n", rec.Len(), rec.Dropped(), obs.TracePath)
	}
	if obs.Profile {
		fmt.Println()
		fmt.Print(trace.ComputeProfile(rec).Render())
	}
	if *heat {
		fmt.Print(g.DotHeat(trace.FireCounts(rec, len(g.Nodes))))
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", err)
			os.Exit(1)
		}
		werr := harness.WriteTelemetry(f, tel.Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "tyrsim: %v\n", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote telemetry to %s\n", *jsonPath)
	}
	if rs.Completed {
		fmt.Println("output validated against native reference: OK")
	}
}

// loadGraph reads an assembly-text graph and validates it in the mode the
// system's engine runs (ordered for ordered, tagged otherwise), so a
// malformed or mis-lowered file is rejected before any engine sees it.
func loadGraph(path, system string) (*dfg.Graph, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := dfg.ParseGraph(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	mode := dfg.ModeTagged
	if system == harness.SysOrdered {
		mode = dfg.ModeOrdered
	}
	if err := g.Validate(mode); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
