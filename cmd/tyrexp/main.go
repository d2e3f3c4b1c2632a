// Command tyrexp regenerates the paper's tables and figures, and checks
// the files the observability surfaces write.
//
// Usage:
//
//	tyrexp [-exp fig12] [-scale small] [-width 128] [-tags 64] [-csv dir] [-json out.json]
//	tyrexp trace -validate trace.json
//	tyrexp flight [-id trace_id] [-validate] dump.json
//
// With no -exp flag, all experiments run in paper order; -exp locality
// runs the tag-budget x cache-capacity sweep. Reports are written to
// stdout; every run's outputs are validated against the native reference
// before any number is printed. -csv also writes each experiment's raw
// data as CSV, and -json writes every run's stats as tyr-telemetry/v1
// JSON: every experiment runs through harness.Run, the Sec. VIII
// ablations and the uarch study included, and records its runs in the
// order it lists them. The experiment runner takes
// -cpuprofile/-memprofile to capture pprof profiles (see
// internal/profflag). Any other first argument is a usage error (exit 2).
//
// trace -validate checks the structure of a Chrome trace-event file, such
// as one `tyrsim -trace` wrote. The flight subcommand reads a tyr-obs/v1
// flight-recorder dump (curl tyrd's /v1/debug/requests) and validates it:
// by default it then tabulates the recorded requests, -id telescopes one
// request into its span tree and the critical-path profile of its
// captured engine trace, and -validate prints only the check's summary.
//
// Shared flag groups live in internal/cliflags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cliflags"
	"repro/internal/harness"
	"repro/internal/profflag"
	"repro/internal/trace"
)

const usage = `usage: tyrexp [-exp name,...] [-scale small] [-width 128] [-tags 64] [-csv dir] [-json out.json] [-cpuprofile f] [-memprofile f]
       tyrexp trace -validate trace.json
       tyrexp flight [-id trace_id] [-validate] dump.json`

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			runTrace(os.Args[2:])
			return
		case "flight":
			runFlight(os.Args[2:])
			return
		}
	}
	runExperiments(os.Args[1:])
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tyrexp: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a command-line error with the usage text and exits 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tyrexp: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, usage)
	os.Exit(2)
}

func runExperiments(args []string) {
	fs := flag.NewFlagSet("tyrexp", flag.ExitOnError)
	exp := fs.String("exp", "", "comma-separated experiments to run ("+strings.Join(harness.Experiments(), ", ")+"); empty = all")
	scale := cliflags.RegisterScale(fs, "small")
	machine := cliflags.RegisterMachine(fs, "")
	csvDir := fs.String("csv", "", "also write each experiment's raw data as CSV into this directory")
	jsonPath := fs.String("json", "", "write every run's stats as tyr-telemetry/v1 JSON to this path")
	prof := profflag.Register(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		usagef("unexpected argument %q", fs.Arg(0))
	}
	sc, err := api.ParseScale(*scale)
	if err != nil {
		usagef("%v", err)
	}
	// fatalf paths lose the profile (os.Exit skips defers), which is fine:
	// a failed run has nothing worth profiling.
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatalf("%v", err)
		}
	}()

	cfg := harness.ExpConfig{Scale: sc, IssueWidth: machine.Width, Tags: machine.Tags}
	var tel harness.Telemetry
	if *jsonPath != "" {
		cfg.Telemetry = &tel
	}

	names := harness.Experiments()
	if *exp != "" {
		names = strings.Split(*exp, ",")
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println(strings.Repeat("=", 78))
		}
		start := time.Now()
		data, report, err := harness.RunExperiment(strings.TrimSpace(name), cfg)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Print(report)
		if *csvDir != "" {
			path, err := harness.ExportCSV(strings.TrimSpace(name), data, *csvDir)
			if err != nil {
				fatalf("csv %s: %v", name, err)
			}
			fmt.Printf("[raw data: %s]\n", path)
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		runs := tel.Snapshot()
		f, err := os.Create(*jsonPath)
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
		fmt.Printf("[telemetry: %s, %d runs]\n", *jsonPath, len(runs))
	}
}

// runTrace checks the structure of an existing Chrome trace file.
func runTrace(args []string) {
	fs := flag.NewFlagSet("tyrexp trace", flag.ExitOnError)
	validate := fs.String("validate", "", "Chrome trace JSON file to validate")
	fs.Parse(args)
	if *validate == "" || fs.NArg() > 0 {
		usagef("trace takes only -validate FILE")
	}
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
}
