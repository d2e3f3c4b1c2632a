// Command tyrexp regenerates the paper's tables and figures, and hosts
// the observability subcommands.
//
// Usage:
//
//	tyrexp [-exp fig12] [-scale small] [-width 128] [-tags 64] [-json out.json]
//	tyrexp trace -app dmv -system tyr [-trace trace.json] [-profile]
//	tyrexp trace -validate trace.json
//	tyrexp bench [-scale small] [-out BENCH.json]
//	tyrexp benchdiff [-tolerance 1.15] old.json new.json
//	tyrexp locality [-scale small] [-csv dir] [-json out.json] [-assert]
//	tyrexp flight [-id trace_id] [-validate] dump.json
//
// With no subcommand and no -exp flag, all experiments run in paper
// order. Reports are written to stdout; every run's outputs are validated
// against the native reference before any number is printed. -json also
// writes every run's stats as tyr-telemetry/v1 JSON.
//
// The trace subcommand records one run's event stream and writes Chrome
// trace-event JSON (and/or the critical-path profile); -validate checks
// the structure of an existing trace file instead of running anything.
// The flight subcommand reads a tyr-obs/v1 flight-recorder dump (curl
// tyrd's /v1/debug/requests): by default it tabulates the recorded
// requests, -id telescopes one request into its span tree and the
// critical-path profile of its captured engine trace, and -validate
// structurally checks the dump including every embedded Chrome trace.
// The bench subcommand times every kernel on every system and writes a
// machine-readable benchmark summary (gmean cycles and wall-clock per
// system). benchdiff compares two summaries and exits nonzero when any
// system's wall-clock regressed past the tolerance (the CI perf gate).
//
// Every subcommand also takes -cpuprofile/-memprofile to capture pprof
// profiles of the run (see internal/profflag). Shared flag groups live in
// internal/cliflags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/benchreg"
	"repro/internal/cache"
	"repro/internal/cliflags"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/profflag"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			runTrace(os.Args[2:])
			return
		case "bench":
			runBench(os.Args[2:])
			return
		case "benchdiff":
			runBenchdiff(os.Args[2:])
			return
		case "locality":
			runLocality(os.Args[2:])
			return
		case "flight":
			runFlight(os.Args[2:])
			return
		}
	}
	runExperiments(os.Args[1:])
}

func parseScale(s string) (apps.Scale, error) {
	switch s {
	case "tiny":
		return apps.ScaleTiny, nil
	case "small":
		return apps.ScaleSmall, nil
	case "medium":
		return apps.ScaleMedium, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small, medium)", s)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tyrexp: "+format+"\n", args...)
	os.Exit(1)
}

// startProfiling / stopProfiling bracket a subcommand body. fatalf paths
// lose the profile (os.Exit skips defers), which is fine — a failed run
// has nothing worth profiling.
func startProfiling(p *profflag.Profiler) {
	if err := p.Start(); err != nil {
		fatalf("%v", err)
	}
}

func stopProfiling(p *profflag.Profiler) {
	if err := p.Stop(); err != nil {
		fatalf("%v", err)
	}
}

func runExperiments(args []string) {
	fs := flag.NewFlagSet("tyrexp", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment to run (tab2, fig2, fig9, fig11, ..., fig18); empty = all")
	scale := cliflags.RegisterScale(fs, "small")
	machine := cliflags.RegisterMachine(fs, "")
	csvDir := fs.String("csv", "", "also write each experiment's raw data as CSV into this directory")
	jsonPath := fs.String("json", "", "write every run's stats as tyr-telemetry/v1 JSON to this path")
	prof := profflag.Register(fs)
	fs.Parse(args)
	startProfiling(prof)
	defer stopProfiling(prof)

	sc, err := parseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tyrexp: %v\n", err)
		os.Exit(2)
	}
	cfg := harness.ExpConfig{Scale: sc, IssueWidth: machine.Width, Tags: machine.Tags}
	var tel harness.Telemetry
	if *jsonPath != "" {
		cfg.Telemetry = &tel
	}

	names := harness.Experiments
	if *exp != "" {
		names = strings.Split(*exp, ",")
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println(strings.Repeat("=", 78))
		}
		start := time.Now()
		report, err := harness.RunExperiment(strings.TrimSpace(name), cfg)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Print(report)
		if *csvDir != "" {
			path, err := harness.ExportCSV(strings.TrimSpace(name), cfg, *csvDir)
			if err != nil {
				fatalf("csv %s: %v", name, err)
			}
			fmt.Printf("[raw data: %s]\n", path)
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		writeTelemetryFile(*jsonPath, tel.Snapshot())
		fmt.Printf("[telemetry: %s, %d runs]\n", *jsonPath, len(tel.Snapshot()))
	}
}

func writeTelemetryFile(path string, runs []metrics.RunStats) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	werr := harness.WriteTelemetry(f, runs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fatalf("%v", werr)
	}
}

// runTrace records one run's event stream and exports it.
func runTrace(args []string) {
	fs := flag.NewFlagSet("tyrexp trace", flag.ExitOnError)
	appName := fs.String("app", "dmv", "workload: dmv, dmm, dconv, smv, spmspv, spmspm, tc")
	machine := cliflags.RegisterMachine(fs, "tyr")
	scale := cliflags.RegisterScale(fs, "tiny")
	obs := cliflags.RegisterObserve(fs)
	validate := fs.String("validate", "", "validate an existing Chrome trace JSON file and exit")
	prof := profflag.Register(fs)
	fs.Parse(args)
	startProfiling(prof)
	defer stopProfiling(prof)

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		if err := trace.ValidateChromeJSON(data); err != nil {
			fatalf("%s: %v", *validate, err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			fatalf("%s: %v", *validate, err)
		}
		fmt.Printf("%s: valid Chrome trace, %d events\n", *validate, len(doc.TraceEvents))
		return
	}

	req := api.Request{
		App: *appName, Scale: *scale, System: machine.System,
		IssueWidth: machine.Width, Tags: machine.Tags,
	}
	plan, err := req.Plan()
	if err != nil {
		fatalf("%v", err)
	}
	app, err := plan.ResolveApp()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := plan.Cfg
	rec := trace.NewRecorder(0)
	cfg.Tracer = rec
	rs, err := harness.Run(app, req.System, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s on %s: %s cycles, %s fires, %d events (%d dropped)\n",
		app.Name, req.System, metrics.FormatCount(rs.Cycles), metrics.FormatCount(rs.Fired),
		rec.Len(), rec.Dropped())
	if obs.TracePath != "" {
		f, err := os.Create(obs.TracePath)
		if err != nil {
			fatalf("%v", err)
		}
		werr := trace.ExportChrome(f, rec)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatalf("%v", werr)
		}
		fmt.Printf("wrote Chrome trace to %s\n", obs.TracePath)
	}
	if obs.Profile {
		fmt.Println()
		fmt.Print(trace.ComputeProfile(rec).Render())
	}
}

// runLocality runs the tag-budget x cache-capacity sweep on its own, with
// an assert mode for CI: -assert fails unless TYR's miss rate beats (or
// ties) unlimited unordered on at least one kernel.
func runLocality(args []string) {
	fs := flag.NewFlagSet("tyrexp locality", flag.ExitOnError)
	scale := cliflags.RegisterScale(fs, "small")
	machine := cliflags.RegisterMachine(fs, "")
	csvDir := fs.String("csv", "", "also write the sweep's raw data as CSV into this directory")
	jsonPath := fs.String("json", "", "write every run's stats as tyr-telemetry/v1 JSON to this path")
	assert := fs.Bool("assert", false, "exit nonzero unless TYR matches or beats unordered's L1 miss rate on >= 1 kernel")
	prof := profflag.Register(fs)
	fs.Parse(args)
	startProfiling(prof)
	defer stopProfiling(prof)

	sc, err := parseScale(*scale)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := harness.ExpConfig{Scale: sc, IssueWidth: machine.Width, Tags: machine.Tags}
	var tel harness.Telemetry
	if *jsonPath != "" {
		cfg.Telemetry = &tel
	}
	d, report, err := harness.Locality(cfg)
	if err != nil {
		fatalf("locality: %v", err)
	}
	fmt.Print(report)
	if *csvDir != "" {
		path, err := harness.ExportCSV("locality", cfg, *csvDir)
		if err != nil {
			fatalf("csv locality: %v", err)
		}
		fmt.Printf("[raw data: %s]\n", path)
	}
	if *jsonPath != "" {
		writeTelemetryFile(*jsonPath, tel.Snapshot())
		fmt.Printf("[telemetry: %s, %d runs]\n", *jsonPath, len(tel.Snapshot()))
	}
	if *assert && d.Wins+d.Ties == 0 {
		fatalf("locality claim failed: TYR's L1 miss rate worse than unordered's on all %d kernels", len(d.Apps))
	}
}

// runBench times every kernel on every system and writes the summary
// (schema: internal/benchreg).
func runBench(args []string) {
	fs := flag.NewFlagSet("tyrexp bench", flag.ExitOnError)
	scale := cliflags.RegisterScale(fs, "small")
	machine := cliflags.RegisterMachine(fs, "")
	out := fs.String("out", "BENCH.json", "write the benchmark summary JSON to this path")
	prof := profflag.Register(fs)
	fs.Parse(args)
	startProfiling(prof)
	defer stopProfiling(prof)

	sc, err := parseScale(*scale)
	if err != nil {
		fatalf("%v", err)
	}
	var tel harness.Telemetry
	suite := apps.Suite(sc)
	for _, app := range suite {
		for _, sys := range harness.Systems {
			cc := cache.DefaultConfig()
			cc.Passthrough = true
			rs, err := harness.Run(app, sys, harness.SysConfig{
				IssueWidth: machine.Width, Tags: machine.Tags, Telemetry: &tel, Cache: &cc,
			})
			if err != nil {
				fatalf("%s/%s: %v", app.Name, sys, err)
			}
			fmt.Printf("%-8s %-10s %10s cycles  %8.2fms\n", app.Name, sys,
				metrics.FormatCount(rs.Cycles), float64(rs.WallNS)/1e6)
		}
	}

	doc := benchreg.Summarize(*scale, harness.Systems, tel.Snapshot())
	doc.Note = fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fatalf("%v", werr)
	}
	fmt.Println()
	tb := &metrics.Table{Headers: []string{"system", "gmean cycles", "wall-clock", "req/s", "L1 miss", "L2 miss", "AMAT"}}
	for _, s := range doc.Systems {
		tb.Add(s.System, metrics.FormatCount(int64(s.GmeanCycles)),
			fmt.Sprintf("%.1fms", float64(s.WallNS)/1e6),
			fmt.Sprintf("%.1f", s.ReqPerSec),
			fmt.Sprintf("%.1f%%", s.L1MissRate*100),
			fmt.Sprintf("%.1f%%", s.L2MissRate*100),
			fmt.Sprintf("%.1f", s.MeanAMAT))
	}
	fmt.Print(tb.String())

	fmt.Printf("wrote benchmark summary to %s\n", *out)
}

// runBenchdiff compares two benchmark summaries and fails on wall-clock
// regressions. Simulated cycle counts are printed when they moved — that
// signals a semantic change, which a perf-only PR must not make.
func runBenchdiff(args []string) {
	fs := flag.NewFlagSet("tyrexp benchdiff", flag.ExitOnError)
	tol := fs.Float64("tolerance", 1.15, "maximum allowed wall-clock growth factor per system")
	strictCycles := fs.Bool("strict-cycles", false, "also fail when simulated cycle counts moved (they are host-independent, so any drift is a semantic change)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatalf("usage: tyrexp benchdiff [-tolerance 1.15] old.json new.json")
	}
	oldDoc, err := benchreg.Load(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	newDoc, err := benchreg.Load(fs.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	rep, err := benchreg.Compare(oldDoc, newDoc, *tol)
	if err != nil {
		fatalf("%v", err)
	}
	// Print both artifacts' host notes up front: wall-clock comparisons
	// across GOMAXPROCS or sweep settings are only judgeable with the
	// conditions side by side.
	fmt.Printf("baseline %s: %s\n", fs.Arg(0), noteOrUnstamped(oldDoc.Note))
	fmt.Printf("new      %s: %s\n", fs.Arg(1), noteOrUnstamped(newDoc.Note))
	tb := &metrics.Table{Headers: []string{"system", "old wall", "new wall", "ratio", "gmean cycles"}}
	for _, d := range rep.Deltas {
		cyc := "unchanged"
		if d.CycleDrift {
			cyc = fmt.Sprintf("%.0f -> %.0f", d.OldCycles, d.NewCycles)
		}
		tb.Add(d.System,
			fmt.Sprintf("%.1fms", float64(d.OldWallNS)/1e6),
			fmt.Sprintf("%.1fms", float64(d.NewWallNS)/1e6),
			fmt.Sprintf("%.2fx", d.WallRatio), cyc)
	}
	fmt.Print(tb.String())
	fmt.Printf("gmean wall-clock ratio %.2fx (tolerance %.2fx per system)\n", rep.GmeanWallRatio, *tol)
	failures := rep.Regressions
	if *strictCycles {
		failures = append(failures, rep.CycleChanges...)
	}
	if len(failures) > 0 {
		for _, r := range failures {
			fmt.Fprintf(os.Stderr, "tyrexp: benchdiff: REGRESSION: %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: PASS")
}

// noteOrUnstamped renders a bench document's host-conditions note,
// flagging older artifacts that predate note stamping.
func noteOrUnstamped(note string) string {
	if note == "" {
		return "(no host note; artifact predates note stamping)"
	}
	return note
}
