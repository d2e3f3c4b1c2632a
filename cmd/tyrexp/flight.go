package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// runFlight reads a tyr-obs/v1 flight-recorder dump (the output of tyrd's
// GET /v1/debug/requests), validates it, and renders it: a request table
// by default, one request's span tree plus the critical-path profile of
// its captured engine trace with -id, or only the check's summary with
// -validate.
func runFlight(args []string) {
	fs := flag.NewFlagSet("tyrexp flight", flag.ExitOnError)
	id := fs.String("id", "", "telescope one recorded request (by trace ID) into its span tree and engine profile")
	validate := fs.Bool("validate", false, "print only the structural check's summary (span trees and embedded Chrome traces)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: tyrexp flight [-id trace_id] [-validate] dump.json")
	}
	path := fs.Arg(0)
	dump, err := loadDump(path)
	if err != nil {
		fatalf("%v", err)
	}

	if *validate {
		captures := 0
		for _, r := range dump.Requests {
			if r.Engine != nil {
				captures++
			}
		}
		fmt.Printf("%s: valid %s dump, %d requests (%d with engine capture)\n",
			path, obs.DumpVersion, len(dump.Requests), captures)
		return
	}

	if *id != "" {
		for _, r := range dump.Requests {
			if r.TraceID == *id {
				renderRequest(r)
				return
			}
		}
		fatalf("%s: no request %s in dump", path, *id)
	}

	fmt.Printf("%d recorded requests (%s)\n", len(dump.Requests), obs.DumpVersion)
	for _, r := range dump.Requests {
		capture := "-"
		if r.Engine != nil {
			capture = fmt.Sprintf("%d events", len(r.Engine.Events))
		}
		retained := r.Retained
		if retained == "" {
			retained = "spans-only"
		}
		fmt.Printf("%s  %3d  %-4s %-12s %10s  %-10s %s\n",
			r.TraceID, r.Status, r.Method, r.Path,
			time.Duration(r.DurationNS).Round(time.Microsecond), retained, capture)
	}
}

// loadDump reads and validates a flight-recorder dump. Every mode renders
// only a dump that passed, so a malformed record (one without spans, say)
// is an error rather than a crash.
func loadDump(path string) (*obs.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	dump, err := obs.ReadDump(f)
	f.Close()
	if err == nil {
		err = dump.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dump, nil
}

// renderRequest prints one record's span tree (children indented under
// their parents, offsets relative to request start) and, when an engine
// capture rode along, replays it through the critical-path profiler.
func renderRequest(r *obs.RequestRecord) {
	fmt.Printf("request %s: %s %s -> %d in %s\n", r.TraceID, r.Method, r.Path,
		r.Status, time.Duration(r.DurationNS).Round(time.Microsecond))
	if r.Retained != "" {
		fmt.Printf("retained: %s\n", r.Retained)
	}
	if r.Error != "" {
		fmt.Printf("error: %s\n", r.Error)
	}

	children := make(map[obs.SpanID][]int, len(r.Spans))
	for i := 1; i < len(r.Spans); i++ {
		children[r.Spans[i].Parent] = append(children[r.Spans[i].Parent], i)
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := r.Spans[i]
		dur := time.Duration(sp.EndNS - sp.StartNS)
		fmt.Printf("%*s%-24s %12s  +%s", 2*depth, "", sp.Name,
			dur.Round(time.Microsecond), time.Duration(sp.StartNS).Round(time.Microsecond))
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  %s=%d", k, sp.Attrs[k])
			}
		}
		fmt.Println()
		for _, c := range children[obs.SpanID(i)] {
			walk(c, depth+1)
		}
	}
	walk(0, 0)

	if r.Engine == nil {
		fmt.Println("no engine capture retained for this request")
		return
	}
	fmt.Printf("\nengine capture: %d events (%d dropped before capture)\n",
		len(r.Engine.Events), r.Engine.Dropped)
	rec := trace.FromEvents(r.Engine.Meta, r.Engine.Events)
	fmt.Print(trace.ComputeProfile(rec).Render())
}
