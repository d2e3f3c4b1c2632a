// Command tyrbench is the repository's benchmark: it drives tyrd over
// loopback HTTP (tyr-api/v1) and the simulator library in-process, on
// seeded workloads, and reports end-to-end metrics from an untraced run
// and per-layer metrics from a separate traced run. Every output is
// checked; the exit status is 1 when any op failed.
//
//	tyrbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	         [-trace-out trace.json] [-out result.json]
//
// It prints a host line, one "workload metric value unit" line per
// metric, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with -trace 0,
// the per-layer metrics with -trace 1. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(mainCode())
}

// host stamps a result with where and how it was measured.
type host struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numcpu"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Clients    int      `json:"clients"`
	TyrdFlags  []string `json:"tyrd_flags"`
}

func mainCode() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated op sequence")
	seconds := flag.Float64("seconds", 20, "length of the measured phase, in seconds (rounded up to whole chunks)")
	traced := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace-event file for the traced run's spans, prefixed with WORKLOAD- when several run (default: tyrbench-trace-WORKLOAD.json in the temp dir)")
	out := flag.String("out", "", "also write the full result document to this file")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "tyrbench: -trace must be 0 or 1")
		return 2
	}

	var sel []workload
	if *name == "all" {
		sel = workloads
	} else if w, ok := findWorkload(*name); ok {
		sel = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "tyrbench: unknown workload %q\n", *name)
		return 2
	}

	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		clients: min(2, runtime.GOMAXPROCS(0)),
	}
	if slices.ContainsFunc(sel, func(w workload) bool { return w.serve }) {
		dir, err := os.MkdirTemp("", "tyrbench")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tyrbench:", err)
			return 2
		}
		defer os.RemoveAll(dir)
		if cfg.tyrd, err = buildTyrd(dir); err != nil {
			fmt.Fprintln(os.Stderr, "tyrbench:", err)
			return 2
		}
	}

	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace, Clients: cfg.clients,
		TyrdFlags: tyrdFlags("127.0.0.1:<port>"),
	}
	fmt.Printf("# host gomaxprocs=%d numcpu=%d go=%s commit=%s seed=%d seconds=%g trace=%v clients=%d tyrd_flags=%q\n",
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Trace, h.Clients, strings.Join(h.TyrdFlags, " "))

	var results []*result
	for _, w := range sel {
		c := cfg
		if c.trace {
			switch dir, file := filepath.Split(*traceOut); {
			case *traceOut == "":
				c.traceOut = filepath.Join(os.TempDir(), "tyrbench-trace-"+w.name+".json")
			case len(sel) > 1:
				c.traceOut = filepath.Join(dir, w.name+"-"+file)
			default:
				c.traceOut = *traceOut
			}
		}
		r, err := run(w, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tyrbench: %s: %v\n", w.name, err)
			return 2
		}
		printResult(r, c)
		results = append(results, r)
	}

	if *out != "" {
		doc, err := json.MarshalIndent(map[string]any{"schema": "tyrbench/v1", "host": h, "results": results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tyrbench:", err)
			return 2
		}
	}

	line := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Correct: true, Metrics: metricSet{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		ms := r.EndToEnd
		if cfg.trace {
			ms = r.PerLayer
		}
		for k, v := range ms {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			line.Metrics[k] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tyrbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// printResult prints one "workload metric value unit" line per metric.
func printResult(r *result, cfg config) {
	lines := func(defs []metricDef, ms metricSet) {
		for _, d := range defs {
			if m, ok := ms[d.name]; ok {
				fmt.Printf("%s %s %v %s\n", r.Workload, d.name, m.Value, m.Unit)
			}
		}
	}
	lines(endToEnd, r.EndToEnd)
	lines(perLayer, r.PerLayer)
	fmt.Printf("%s failed_ratio %v ratio\n", r.Workload, float64(r.Failed)/float64(max(r.Attempted, 1)))
	if r.FirstError != "" {
		fmt.Printf("# %s first failure: %s\n", r.Workload, r.FirstError)
	}
	if cfg.traceOut != "" {
		fmt.Printf("# %s trace written to %s\n", r.Workload, cfg.traceOut)
	}
}

// commit is the checked-out git revision, or "unknown" outside a git
// checkout.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
