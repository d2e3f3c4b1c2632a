// Package benchreg defines the committed benchmark summary schema
// (tyr-bench/v1, the BENCH_*.json series written by `tyrexp bench`) and a
// regression comparator over it. The comparator is the CI gate behind
// `tyrexp benchdiff old.json new.json`: per-system wall-clock may not
// grow past a tolerance factor, and simulated cycle counts are surfaced
// whenever they move at all — a cycles change is a semantics change, not
// a performance change, and must be intentional.
package benchreg

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/metrics"
)

// Schema is the current benchmark summary schema identifier.
const Schema = "tyr-bench/v1"

// Doc is one benchmark summary file.
type Doc struct {
	Schema string `json:"schema"`
	Scale  string `json:"scale"`
	// Note records host conditions the numbers depend on — GOMAXPROCS and
	// the CPU count, chiefly — so a wall-clock comparison across files can
	// be judged. It never enters the comparison itself.
	Note    string   `json:"note,omitempty"`
	Systems []System `json:"systems"`
	// Runs carries the full per-run telemetry behind the summary.
	Runs []metrics.RunStats `json:"runs,omitempty"`
}

// System is one simulated machine's aggregate over the kernel suite.
type System struct {
	System      string  `json:"system"`
	GmeanCycles float64 `json:"gmean_cycles"`
	WallNS      int64   `json:"wall_ns"` // summed across kernels
	// Cache behavior, measured by a passthrough hierarchy (zero timing
	// impact, so gmean_cycles stays comparable across benchmark files):
	// aggregate miss rates across kernels and the mean of per-run AMATs.
	L1MissRate float64 `json:"l1_miss_rate"`
	L2MissRate float64 `json:"l2_miss_rate"`
	MeanAMAT   float64 `json:"mean_amat"`
	// ReqPerSec is simulation throughput in requests per second (runs
	// divided by summed wall-clock). Host-dependent like WallNS; never part
	// of the cycle-identity comparison. BENCH_pr10.json also carries
	// sys@bN entries from the removed lockstep-batch sweep; on the new
	// side of a comparison, Compare ignores them like any system the
	// baseline lacks.
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
}

// Load reads and validates a benchmark summary file.
func Load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(d.Schema, "tyr-bench/") {
		return nil, fmt.Errorf("%s: schema %q is not a tyr-bench document", path, d.Schema)
	}
	if len(d.Systems) == 0 {
		return nil, fmt.Errorf("%s: no systems in summary", path)
	}
	return &d, nil
}

// Summarize aggregates per-run telemetry into a tyr-bench/v1 document:
// per-system gmean simulated cycles, summed wall-clock, and aggregate cache
// behavior (when runs carry cache counters). systems fixes the summary
// order; systems with no runs are omitted.
func Summarize(scale string, systems []string, runs []metrics.RunStats) *Doc {
	doc := &Doc{Schema: Schema, Scale: scale, Runs: runs}
	perSys := map[string][]float64{}
	wall := map[string]int64{}
	type cacheAgg struct {
		l1Acc, l1Miss, l2Acc, l2Miss int64
		amatSum                      float64
		n                            int
	}
	agg := map[string]*cacheAgg{}
	for _, rs := range runs {
		perSys[rs.System] = append(perSys[rs.System], float64(rs.Cycles))
		wall[rs.System] += rs.WallNS
		if rs.Cache != nil {
			a := agg[rs.System]
			if a == nil {
				a = &cacheAgg{}
				agg[rs.System] = a
			}
			a.l1Acc += rs.Cache.L1.Accesses
			a.l1Miss += rs.Cache.L1.Misses
			a.l2Acc += rs.Cache.L2.Accesses
			a.l2Miss += rs.Cache.L2.Misses
			a.amatSum += rs.Cache.AMAT
			a.n++
		}
	}
	for _, sys := range systems {
		if len(perSys[sys]) == 0 {
			continue
		}
		bs := System{System: sys, GmeanCycles: metrics.Gmean(perSys[sys]), WallNS: wall[sys]}
		if wall[sys] > 0 {
			bs.ReqPerSec = float64(len(perSys[sys])) / (float64(wall[sys]) / 1e9)
		}
		if a := agg[sys]; a != nil && a.l1Acc > 0 {
			bs.L1MissRate = float64(a.l1Miss) / float64(a.l1Acc)
			bs.MeanAMAT = a.amatSum / float64(a.n)
			if a.l2Acc > 0 {
				bs.L2MissRate = float64(a.l2Miss) / float64(a.l2Acc)
			}
		}
		doc.Systems = append(doc.Systems, bs)
	}
	return doc
}

// Delta is one system's old-vs-new comparison.
type Delta struct {
	System     string
	OldWallNS  int64
	NewWallNS  int64
	WallRatio  float64 // new/old; < 1 is a speedup
	OldCycles  float64
	NewCycles  float64
	CycleDrift bool // simulated cycles moved (semantic change)
}

// Report is the outcome of a comparison.
type Report struct {
	Deltas []Delta
	// GmeanWallRatio is the geometric-mean new/old wall ratio across
	// systems present in both documents.
	GmeanWallRatio float64
	// Regressions lists every tolerance violation (empty = pass).
	Regressions []string
	// CycleChanges lists systems whose simulated cycles moved —
	// informational, since a PR may change modeling intentionally, but
	// never silently acceptable in a perf-only change.
	CycleChanges []string
}

// Pass reports whether the comparison met the tolerance.
func (r *Report) Pass() bool { return len(r.Regressions) == 0 }

// Compare evaluates a new benchmark summary against an old baseline. A
// system regresses when its wall-clock grows by more than the tolerance
// factor (e.g. 1.15 = +15%). Systems missing from the new document are
// regressions; new systems are ignored (they have no baseline).
func Compare(oldDoc, newDoc *Doc, tolerance float64) (*Report, error) {
	if tolerance <= 0 {
		return nil, fmt.Errorf("benchreg: tolerance must be positive (got %g)", tolerance)
	}
	if oldDoc.Scale != newDoc.Scale {
		return nil, fmt.Errorf("benchreg: scale mismatch: baseline %q vs new %q", oldDoc.Scale, newDoc.Scale)
	}
	newBy := make(map[string]System, len(newDoc.Systems))
	for _, s := range newDoc.Systems {
		newBy[s.System] = s
	}
	rep := &Report{}
	logSum, n := 0.0, 0
	for _, o := range oldDoc.Systems {
		nw, ok := newBy[o.System]
		if !ok {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: present in baseline but missing from new summary", o.System))
			continue
		}
		d := Delta{
			System:    o.System,
			OldWallNS: o.WallNS,
			NewWallNS: nw.WallNS,
			OldCycles: o.GmeanCycles,
			NewCycles: nw.GmeanCycles,
		}
		if o.WallNS > 0 {
			d.WallRatio = float64(nw.WallNS) / float64(o.WallNS)
			logSum += math.Log(d.WallRatio)
			n++
		}
		if o.GmeanCycles != nw.GmeanCycles {
			d.CycleDrift = true
			rep.CycleChanges = append(rep.CycleChanges,
				fmt.Sprintf("%s: gmean cycles %.1f -> %.1f", o.System, o.GmeanCycles, nw.GmeanCycles))
		}
		if d.WallRatio > tolerance {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: wall-clock %.1fms -> %.1fms (%.2fx > tolerance %.2fx)",
					o.System, float64(o.WallNS)/1e6, float64(nw.WallNS)/1e6, d.WallRatio, tolerance))
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	if n > 0 {
		rep.GmeanWallRatio = math.Exp(logSum / float64(n))
	}
	return rep, nil
}
