package harness

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// ExportCSV writes an experiment's data, as RunExperiment returned it, as
// CSV to dir/name.csv for external plotting, and returns the file's path.
// It runs nothing. Experiments whose artifact is inherently textual (tab2,
// fig11, abl-tags, uarch) export their tabular core; trace experiments
// export (series, cycle, live) rows.
func ExportCSV(name string, data any, dir string) (string, error) {
	var rows [][]string
	switch d := data.(type) {
	case *TraceData:
		rows = append(rows, []string{"series", "cycle", "live"})
		for _, label := range d.Labels {
			for _, pt := range d.Series[label] {
				rows = append(rows, []string{label, i64(pt.Cycle), i64(pt.Live)})
			}
		}
	case *Fig12Data:
		rows = append(rows, []string{"app", "system", "cycles"})
		for _, app := range d.Apps {
			for _, sys := range Systems {
				rows = append(rows, []string{app, sys, i64(d.Cycles[sys][app])})
			}
		}
	case *Fig13Data:
		rows = append(rows, []string{"system", "ipc", "cycles"})
		for _, sys := range Systems {
			ipcs := make([]int, 0, len(d.Hist[sys]))
			for ipc := range d.Hist[sys] {
				ipcs = append(ipcs, ipc)
			}
			sort.Ints(ipcs)
			for _, ipc := range ipcs {
				rows = append(rows, []string{sys, strconv.Itoa(ipc), i64(d.Hist[sys][ipc])})
			}
		}
	case *Fig14Data:
		rows = append(rows, []string{"app", "system", "peak_live", "mean_live"})
		for _, app := range d.Apps {
			for _, sys := range Systems {
				rows = append(rows, []string{app, sys, i64(d.Peak[sys][app]),
					fmt.Sprintf("%.2f", d.Mean[sys][app])})
			}
		}
	case *Fig15Data:
		rows = append(rows, []string{"system", "issue_width", "cycles", "peak_live"})
		for _, sys := range d.Systems {
			for _, w := range d.Widths {
				rows = append(rows, []string{sys, strconv.Itoa(w), i64(d.Cycles[sys][w]), i64(d.Peak[sys][w])})
			}
		}
	case *Fig16Data:
		rows = append(rows, []string{"tags", "cycle", "live"})
		for _, tags := range d.TagWidths {
			for _, pt := range d.Traces[tags] {
				rows = append(rows, []string{strconv.Itoa(tags), i64(pt.Cycle), i64(pt.Live)})
			}
		}
	case *Fig17Data:
		rows = append(rows, []string{"issue_width", "tags", "ipc", "peak_live"})
		for _, w := range d.Widths {
			for _, tg := range d.Tags {
				key := [2]int{w, tg}
				rows = append(rows, []string{strconv.Itoa(w), strconv.Itoa(tg),
					fmt.Sprintf("%.3f", d.IPC[key]), i64(d.Peak[key])})
			}
		}
	case *Fig18Data:
		rows = append(rows,
			[]string{"config", "cycles", "peak_live"},
			[]string{"baseline", i64(d.BaselineCycles), i64(d.BaselinePeak)},
			[]string{"outer_restricted", i64(d.TunedCycles), i64(d.TunedPeak)})
	case *LatencyData:
		rows = append(rows, []string{"system", "load_latency", "cycles"})
		for _, sys := range d.Rows {
			for _, lat := range d.Latencies {
				rows = append(rows, []string{sys, strconv.Itoa(lat), i64(d.Cycles[sys][lat])})
			}
		}
	case *LocalityData:
		rows = append(rows, []string{"app", "row", "l1_words", "l1_miss", "l2_miss", "amat", "cycles", "peak_live"})
		for _, p := range d.Points {
			rows = append(rows, []string{p.App, p.Row, strconv.Itoa(p.L1Words),
				fmt.Sprintf("%.4f", p.L1Miss), fmt.Sprintf("%.4f", p.L2Miss),
				fmt.Sprintf("%.2f", p.AMAT), i64(p.Cycles), i64(p.PeakLive)})
		}
	case *AblQueueData:
		rows = append(rows, []string{"app", "queue_depth", "cycles", "peak_live"})
		for _, r := range d.Rows {
			rows = append(rows, []string{r.App, strconv.Itoa(r.Depth), i64(r.Cycles), i64(r.PeakLive)})
		}
	case *AblTagsData:
		rows = append(rows, []string{"app", "scheme", "outcome", "cycles", "peak_live", "peak_tags"})
		for _, r := range d.Rows {
			outcome := "completed"
			if r.Deadlocked {
				outcome = "deadlock"
			}
			rows = append(rows, []string{r.App, r.Scheme, outcome, i64(r.Cycles), i64(r.PeakLive), strconv.Itoa(r.PeakTags)})
		}
	case *UarchData:
		rows = append(rows, []string{"app", "scheme", "peak_store_per_instr", "peak_live", "frame_pct"})
		for _, r := range d.Rows {
			rows = append(rows, []string{r.App, r.Scheme, strconv.Itoa(r.PeakStorePerInstr),
				i64(r.PeakLive), fmt.Sprintf("%.4f", r.FramePct)})
		}
	case *Table2Data:
		rows = append(rows, []string{"app", "description", "dyn_instrs", "static_nodes", "blocks", "tag_ops"})
		for _, r := range d.Rows {
			rows = append(rows, []string{r.App, r.Description, i64(r.DynInstrs),
				strconv.Itoa(r.StaticNodes), strconv.Itoa(r.Blocks), strconv.Itoa(r.TagOps)})
		}
	case *Fig11Data:
		rows = append(rows,
			[]string{"metric", "value"},
			[]string{"global_tags", strconv.Itoa(d.GlobalTags)},
			[]string{"deadlocked", strconv.FormatBool(d.Deadlocked)},
			[]string{"tyr_tags", strconv.Itoa(d.TyrTags)},
			[]string{"tyr_completed", strconv.FormatBool(d.TyrCompleted)},
			[]string{"tyr_cycles", i64(d.TyrCycles)},
			[]string{"unlimited_contexts_needed", strconv.Itoa(d.UnlimitedTagsNeeded)})
	default:
		return "", fmt.Errorf("harness: no CSV export for experiment %q (data %T)", name, data)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return "", err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func i64(v int64) string { return strconv.FormatInt(v, 10) }
