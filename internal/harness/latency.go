package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
)

// LatencyData holds the memory-latency tolerance study.
type LatencyData struct {
	App       string
	Latencies []int
	Rows      []string                 // systems plus the "tyr+" high-tag config
	Cycles    map[string]map[int]int64 // row -> latency -> cycles
	// Slowdown[row] = cycles at the largest latency / cycles at latency 1.
	Slowdown map[string]float64
}

// Latency quantifies the motivation the paper cites for tagged dataflow on
// irregular workloads (Sec. II-C): unordered execution hides memory
// latency with parallelism, while sequential machines stall and ordered
// dataflow's FIFOs block later instances of the same instruction behind a
// slow one. The experiment sweeps load latency on smv (the irregular
// gather kernel) across all five systems.
func Latency(cfg ExpConfig) (*LatencyData, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "smv")
	d := &LatencyData{
		App:       app.Name,
		Latencies: []int{1, 4, 16, 64},
		Cycles:    map[string]map[int]int64{},
		Slowdown:  map[string]float64{},
	}
	// "tyr+" runs TYR with a 4x tag budget: latency tolerance is exactly
	// what extra tags buy (the Fig. 17 tradeoff applied to memory).
	rows := append(append([]string{}, Systems...), "tyr+")
	d.Rows = rows
	for _, sys := range rows {
		d.Cycles[sys] = map[int]int64{}
	}
	var cells []cell
	for _, row := range rows {
		for _, lat := range d.Latencies {
			sc := cfg.sys()
			sc.LoadLatency = lat
			sys := row
			if row == "tyr+" {
				sc.Tags = cfg.Tags * 4
				sys = SysTyr
			}
			cells = append(cells, cell{app, sys, sc})
		}
	}
	runs, err := runCells("latency", cells)
	if err != nil {
		return nil, "", err
	}
	// The runs come back in the order the loop above built the cells.
	for _, row := range rows {
		for _, lat := range d.Latencies {
			d.Cycles[row][lat] = runs[0].Cycles
			runs = runs[1:]
		}
	}
	last := d.Latencies[len(d.Latencies)-1]
	for _, sys := range rows {
		d.Slowdown[sys] = float64(d.Cycles[sys][last]) / float64(d.Cycles[sys][1])
	}

	tb := &metrics.Table{Headers: append([]string{"cycles @latency"}, intHeaders(d.Latencies)...)}
	for _, sys := range rows {
		row := []string{sys}
		for _, lat := range d.Latencies {
			row = append(row, metrics.FormatCount(d.Cycles[sys][lat]))
		}
		tb.Add(row...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Latency tolerance: smv execution time vs load latency (Sec. II-C motivation)\n\n")
	b.WriteString(tb.String())
	b.WriteString("\nslowdown at the largest latency vs single-cycle memory:\n")
	tb2 := &metrics.Table{}
	for _, sys := range rows {
		tb2.Add(sys, metrics.FormatRatio(d.Slowdown[sys]))
	}
	b.WriteString(tb2.String())
	fmt.Fprintf(&b, "\nTagged dataflow (unordered, TYR) hides latency with parallelism; the\n"+
		"sequential machine pays it in full, and ordered dataflow's FIFOs stall\n"+
		"later instances of each instruction behind the slow one. tyr+ (%d tags\n"+
		"per block) shows the knob: more tags buy more latency tolerance.\n", cfg.Tags*4)
	return d, b.String(), nil
}
