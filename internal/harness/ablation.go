package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
)

// Ablations back the paper's Sec. VIII discussion ("roads not traveled"):
// they isolate which parts of TYR's design are load-bearing.
//
//   - ablTags compares tag-management schemes on the same graphs: TYR
//     (local pools + readiness protocol), local pools without the
//     protocol (deadlocks), TTDA-style k-bounding of leaf loops only
//     (completes, but outer-loop state stays unbounded), and unlimited
//     unordered dataflow.
//   - ablQueue sweeps the ordered-dataflow FIFO depth, reproducing the
//     paper's setting that 4-deep queues empirically minimize state with
//     minimal performance loss.

// AblTagsRow is one (app, scheme) observation.
type AblTagsRow struct {
	App        string
	Scheme     string
	Completed  bool
	Deadlocked bool
	Cycles     int64
	PeakLive   int64
	PeakTags   int
}

// AblTagsData holds the tag-scheme ablation.
type AblTagsData struct {
	Tags int
	Rows []AblTagsRow
}

// AblTags runs the tag-scheme ablation on the dense and sparse nest
// workloads (dmv and spmspm) at the configured scale.
func AblTags(cfg ExpConfig) (*AblTagsData, string, error) {
	cfg = cfg.withDefaults()
	const tags = 8 // tight budget so scheme differences are visible
	d := &AblTagsData{Tags: tags}
	suite := apps.Suite(cfg.Scale)
	var cells []cell
	for _, appName := range []string{"dmv", "spmspm"} {
		app := apps.Find(suite, appName)
		for _, scheme := range []string{SysTyr, sysLocalNoGate, sysKBoundLeaf, SysUnordered} {
			sc := cfg.sys()
			sc.Tags = tags
			cells = append(cells, cell{app, scheme, sc})
		}
	}
	runs, err := runCells("abl-tags", cells)
	if err != nil {
		return nil, "", err
	}
	for _, rs := range runs {
		d.Rows = append(d.Rows, AblTagsRow{
			App:        rs.App,
			Scheme:     rs.System,
			Completed:  rs.Completed,
			Deadlocked: rs.Deadlocked,
			Cycles:     rs.Cycles,
			PeakLive:   rs.PeakLive,
			PeakTags:   rs.PeakTags,
		})
	}

	tb := &metrics.Table{Headers: []string{"app", "scheme", "outcome", "cycles", "peak live", "peak tags"}}
	for _, r := range d.Rows {
		outcome := "completed"
		if r.Deadlocked {
			outcome = "DEADLOCK"
		}
		tb.Add(r.App, r.Scheme, outcome,
			metrics.FormatCount(r.Cycles), metrics.FormatCount(r.PeakLive), fmt.Sprint(r.PeakTags))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: tag-management schemes at %d tags per pool (Sec. VIII)\n\n", tags)
	b.WriteString(tb.String())
	b.WriteString("\nTYR needs both halves of its design: local pools alone (no readiness\n" +
		"protocol) deadlock, and k-bounding leaf loops alone leaves outer-loop\n" +
		"state unbounded (compare its peak tags against TYR's).\n")
	return d, b.String(), nil
}

// AblQueueRow is one (app, depth) observation.
type AblQueueRow struct {
	App      string
	Depth    int
	Cycles   int64
	PeakLive int64
}

// AblQueueData holds the FIFO-depth sweep for ordered dataflow.
type AblQueueData struct {
	Depths []int
	Rows   []AblQueueRow
}

// AblQueue sweeps ordered dataflow's queue capacity, the paper's
// justification for the 4-token setting.
func AblQueue(cfg ExpConfig) (*AblQueueData, string, error) {
	cfg = cfg.withDefaults()
	d := &AblQueueData{Depths: []int{2, 4, 8, 16, 32}}
	suite := apps.Suite(cfg.Scale)
	var cells []cell
	for _, appName := range []string{"dmv", "smv", "spmspm"} {
		app := apps.Find(suite, appName)
		for _, depth := range d.Depths {
			sc := cfg.sys()
			sc.QueueCap = depth
			cells = append(cells, cell{app, SysOrdered, sc})
		}
	}
	runs, err := runCells("abl-queue", cells)
	if err != nil {
		return nil, "", err
	}
	for i, rs := range runs {
		d.Rows = append(d.Rows, AblQueueRow{
			App: rs.App, Depth: cells[i].cfg.QueueCap, Cycles: rs.Cycles, PeakLive: rs.PeakLive,
		})
	}

	tb := &metrics.Table{Headers: []string{"app", "queue depth", "cycles", "peak live"}}
	for _, r := range d.Rows {
		tb.Add(r.App, fmt.Sprint(r.Depth), metrics.FormatCount(r.Cycles), metrics.FormatCount(r.PeakLive))
	}
	report := "Ablation: ordered-dataflow FIFO depth (the paper uses 4: minimal state\n" +
		"loss in performance, bounded state)\n\n" + tb.String()
	return d, report, nil
}
