package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSeededSequences pins the generator: one seed always yields the same
// request bytes, another seed different ones, and inline sources never
// repeat within a sequence.
func TestSeededSequences(t *testing.T) {
	const n = 500
	for _, w := range workloads {
		differs := false
		seen := make(map[string]bool)
		for i := 0; i < n; i++ {
			a, b := w.op(7, i), w.op(7, i)
			if !bytes.Equal(a.body, b.body) || a.key != b.key {
				t.Fatalf("%s op %d: seed 7 generated two different ops", w.name, i)
			}
			if !bytes.Equal(a.body, w.op(8, i).body) {
				differs = true
			}
			if w.source {
				if seen[string(a.body)] {
					t.Fatalf("%s op %d repeats an earlier request", w.name, i)
				}
				seen[string(a.body)] = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same %d ops", w.name, n)
		}
	}
}

// TestRoundsCoverTemplates checks that every round runs each template
// exactly once, which is what makes whole-round phases seed-independent.
func TestRoundsCoverTemplates(t *testing.T) {
	for _, w := range workloads {
		count := make(map[string]int)
		for i := 0; i < 3*w.roundLen(); i++ {
			count[w.op(11, i).key]++
		}
		if len(count) != w.roundLen() {
			t.Fatalf("%s: %d templates in 3 rounds, want %d", w.name, len(count), w.roundLen())
		}
		for key, c := range count {
			if c != 3 {
				t.Errorf("%s: template %s ran %d times in 3 rounds", w.name, key, c)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the declarations here in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, tyrbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, tyrbench %q (%q)", i, d.Name, w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, tyrbench %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, tyrbench %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload at smoke size, traced, twice, against a
// tyrd built from this module.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts tyrd")
	}
	dir := t.TempDir()
	bin, err := buildTyrd(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w.smoke()
		t.Run(w.name, func(t *testing.T) {
			cfg := config{
				seed: 3, measure: 200 * time.Millisecond, trace: true, clients: 2, tyrd: bin,
				traceOut: filepath.Join(dir, w.name+".json"),
			}
			var cycles []float64
			reconciled := false
			for rep := 0; rep < 2; rep++ {
				r, err := run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("%d of %d ops failed: %s", r.Failed, r.Attempted, r.FirstError)
				}
				for _, d := range endToEnd {
					if v, ok := r.EndToEnd[d.name]; !ok || !(v.Value > 0) {
						t.Errorf("end-to-end %s = %v, want a positive value", d.name, v)
					}
				}
				for _, d := range perLayer {
					if _, ok := r.PerLayer[d.name]; !ok {
						t.Errorf("per-layer %s missing", d.name)
					}
				}
				// A systematic gap shows in both replays; one GC pause
				// or preemption in a short replay shows in one.
				gap := r.PerLayer["harness.layer_gap_ratio"].Value
				if gap <= 0.10 || r.gapPerOp <= 200*time.Microsecond {
					reconciled = true
				} else {
					t.Logf("replay %d: layers miss harness.Run by %.1f%% (%v per op)", rep, gap*100, r.gapPerOp)
				}
				if w.serve && r.PerLayer["server.unattributed_ms"].Value < 0 {
					t.Errorf("server stage means exceed the request mean by %v ms", -r.PerLayer["server.unattributed_ms"].Value)
				}
				cycles = append(cycles, r.PerLayer["engine.cycles_total"].Value)
			}
			if !reconciled {
				t.Errorf("layers do not reconcile with harness.Run within 10%% or 0.2 ms per op in either replay")
			}
			if cycles[0] != cycles[1] || cycles[0] == 0 {
				t.Errorf("engine.cycles_total %v and %v over two replays", cycles[0], cycles[1])
			}
			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Ph != "X" {
				t.Errorf("trace file holds no complete events")
			}
		})
	}
}
