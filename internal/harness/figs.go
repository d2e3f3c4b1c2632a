package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/metrics"
)

// ExpConfig parameterizes the experiment suite.
type ExpConfig struct {
	Scale      apps.Scale // input sizes (default small)
	IssueWidth int        // default 128 (paper)
	Tags       int        // TYR tags per block, default 64 (paper)
	// Telemetry, when non-nil, collects every run's RunStats for
	// machine-readable export.
	Telemetry *Telemetry
}

func (c ExpConfig) withDefaults() ExpConfig {
	if c.IssueWidth == 0 {
		c.IssueWidth = 128
	}
	if c.Tags == 0 {
		c.Tags = 64
	}
	return c
}

func (c ExpConfig) sys() SysConfig {
	return SysConfig{IssueWidth: c.IssueWidth, Tags: c.Tags, Telemetry: c.Telemetry}
}

// cell is one run of an experiment: a workload on a system under a config.
type cell struct {
	app *apps.App
	sys string
	cfg SysConfig
}

// runCells is every experiment's one way to run: each cell goes through
// Run on up to GOMAXPROCS workers, and the records come back in cell
// order. Once a cell fails no new cell starts, and the error names the
// experiment, app and system of every cell that failed. Telemetry records
// the runs in cell order too, so an experiment's output never depends on
// scheduling.
func runCells(exp string, cells []cell) ([]metrics.RunStats, error) {
	out := make([]metrics.RunStats, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				c := cells[i]
				c.cfg.Telemetry = nil
				rs, err := Run(c.app, c.sys, c.cfg)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %s on %s: %w", exp, c.app.Name, c.sys, err)
					failed.Store(true)
					return
				}
				out[i] = rs
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, c := range cells {
		c.cfg.Telemetry.Record(out[i])
	}
	return out, nil
}

// suiteRuns runs every suite app on every system, app-major: the grid
// Figs. 12-14 share. It returns the app names in suite order.
func suiteRuns(exp string, cfg ExpConfig) ([]string, []metrics.RunStats, error) {
	var names []string
	var cells []cell
	for _, app := range apps.Suite(cfg.Scale) {
		names = append(names, app.Name)
		for _, sys := range Systems {
			cells = append(cells, cell{app, sys, cfg.sys()})
		}
	}
	runs, err := runCells(exp, cells)
	return names, runs, err
}

// TraceData holds state-over-time traces for one app across labeled runs.
type TraceData struct {
	App    string
	Labels []string // presentation order
	Series map[string][]metrics.TracePoint
	Stats  map[string]metrics.RunStats
}

func newTraceData(app string) *TraceData {
	return &TraceData{App: app, Series: map[string][]metrics.TracePoint{}, Stats: map[string]metrics.RunStats{}}
}

// add appends one labeled run.
func (d *TraceData) add(label string, rs metrics.RunStats) {
	d.Labels = append(d.Labels, label)
	d.Series[label] = rs.Trace
	d.Stats[label] = rs
}

func (d *TraceData) render(title string) string {
	var series []metrics.Series
	for _, l := range d.Labels {
		series = append(series, metrics.Series{Name: l, Points: d.Series[l]})
	}
	var b strings.Builder
	b.WriteString(metrics.RenderTraces(title, series, 76, 16))
	tb := &metrics.Table{Headers: []string{"run", "cycles", "fired", "peak live", "mean live", "config"}}
	for _, l := range d.Labels {
		s := d.Stats[l]
		tb.Add(l, metrics.FormatCount(s.Cycles), metrics.FormatCount(s.Fired),
			metrics.FormatCount(s.PeakLive), fmt.Sprintf("%.1f", s.MeanLive), s.Note)
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig2 reproduces the page-1 headline trace: live state over time for
// spmspm on all five systems.
func Fig2(cfg ExpConfig) (*TraceData, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "spmspm")
	var cells []cell
	for _, sys := range Systems {
		cells = append(cells, cell{app, sys, cfg.sys()})
	}
	runs, err := runCells("fig2", cells)
	if err != nil {
		return nil, "", err
	}
	d := newTraceData(app.Name)
	for _, rs := range runs {
		d.add(rs.System, rs)
	}
	return d, d.render("Fig. 2: live state over time, spmspm (" + app.Description + ")"), nil
}

// Fig9 reproduces the tag-width trace study on dmv: TYR at several local
// tag-space sizes, against unlimited-tag unordered dataflow.
func Fig9(cfg ExpConfig) (*TraceData, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "dmv")
	var cells []cell
	for _, tags := range []int{2, 8, 64} {
		sc := cfg.sys()
		sc.Tags = tags
		cells = append(cells, cell{app, SysTyr, sc})
	}
	cells = append(cells, cell{app, SysUnordered, cfg.sys()})
	runs, err := runCells("fig9", cells)
	if err != nil {
		return nil, "", err
	}
	d := newTraceData(app.Name)
	for i, rs := range runs {
		label := "unlimited"
		if rs.System == SysTyr {
			label = fmt.Sprintf("%d-tags", cells[i].cfg.Tags)
		}
		d.add(label, rs)
	}
	return d, d.render("Fig. 9: TYR on dmv across local tag-space sizes (u = unlimited/unordered)"), nil
}

// Fig11Data reports the bounded-global-tag deadlock demonstration.
type Fig11Data struct {
	GlobalTags          int
	Deadlocked          bool
	DeadlockCycle       int64
	LiveAtDeadlock      int64
	StarvedAllocs       int
	StarvedLabels       []string
	StarvedSpaces       []metrics.DeadlockSpace // which blocks starved, under what budget
	TyrTags             int
	TyrCompleted        bool
	TyrCycles           int64
	UnlimitedTagsNeeded int // peak contexts the unlimited run consumed
}

// Fig11 reproduces the deadlock of naive unordered dataflow with 8 global
// tags on dmv, contrasted with TYR completing on 2 tags per block.
func Fig11(cfg ExpConfig) (*Fig11Data, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "dmv")
	d := &Fig11Data{GlobalTags: 8, TyrTags: 2}

	// SkipCheck on the bounded-global leg: a deadlocked run has no output
	// to validate.
	bounded := cfg.sys()
	bounded.GlobalTags = d.GlobalTags
	bounded.SkipCheck = true
	tyr := cfg.sys()
	tyr.Tags = d.TyrTags
	runs, err := runCells("fig11", []cell{
		{app, SysUnordered, bounded},
		{app, SysTyr, tyr},
		{app, SysUnordered, cfg.sys()},
	})
	if err != nil {
		return nil, "", err
	}
	rs := runs[0]
	d.Deadlocked = rs.Deadlocked
	d.DeadlockCycle = rs.Cycles
	d.LiveAtDeadlock = rs.PeakLive
	if rs.Deadlock != nil {
		d.StarvedAllocs = rs.Deadlock.StarvedAllocs
		d.StarvedLabels = append(d.StarvedLabels, rs.Deadlock.Summary)
		d.StarvedSpaces = rs.Deadlock.Spaces
	}
	d.TyrCompleted = runs[1].Completed
	d.TyrCycles = runs[1].Cycles
	d.UnlimitedTagsNeeded = runs[2].PeakTags

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11: deadlock from bounding a global tag space (dmv, %s)\n\n", app.Description)
	fmt.Fprintf(&b, "naive unordered, %d global tags: deadlocked=%v (%s)\n", d.GlobalTags, d.Deadlocked, strings.Join(d.StarvedLabels, "; "))
	for _, sp := range d.StarvedSpaces {
		fmt.Fprintf(&b, "  starved: %s block %q — %d allocate(s) waiting, %d of %d pool tags in use\n",
			sp.Kind, sp.Block, sp.Starved, sp.InUse, sp.Tags)
	}
	fmt.Fprintf(&b, "naive unordered, unlimited tags: completes but holds up to %d live contexts\n", d.UnlimitedTagsNeeded)
	fmt.Fprintf(&b, "TYR, %d tags per local tag space: completed=%v in %d cycles\n", d.TyrTags, d.TyrCompleted, d.TyrCycles)
	return d, b.String(), nil
}

// Fig12Data holds execution time for every app on every system.
type Fig12Data struct {
	Apps   []string
	Cycles map[string]map[string]int64 // system -> app -> cycles
	// GmeanSlowdownVsTyr is, per system, gmean over apps of
	// cycles(system)/cycles(tyr) — the paper's headline speedups.
	GmeanSlowdownVsTyr map[string]float64
}

// Fig12 reproduces the execution-time comparison across all apps/systems.
func Fig12(cfg ExpConfig) (*Fig12Data, string, error) {
	cfg = cfg.withDefaults()
	names, runs, err := suiteRuns("fig12", cfg)
	if err != nil {
		return nil, "", err
	}
	d := &Fig12Data{Apps: names, Cycles: map[string]map[string]int64{}, GmeanSlowdownVsTyr: map[string]float64{}}
	for _, sys := range Systems {
		d.Cycles[sys] = map[string]int64{}
	}
	for _, rs := range runs {
		d.Cycles[rs.System][rs.App] = rs.Cycles
	}
	for _, sys := range Systems {
		var ratios []float64
		for _, app := range d.Apps {
			ratios = append(ratios, float64(d.Cycles[sys][app])/float64(d.Cycles[SysTyr][app]))
		}
		d.GmeanSlowdownVsTyr[sys] = metrics.Gmean(ratios)
	}

	tb := &metrics.Table{Headers: append([]string{"app"}, Systems...)}
	for _, app := range d.Apps {
		row := []string{app}
		for _, sys := range Systems {
			row = append(row, metrics.FormatCount(d.Cycles[sys][app]))
		}
		tb.Add(row...)
	}
	gm := []string{"gmean vs tyr"}
	for _, sys := range Systems {
		gm = append(gm, metrics.FormatRatio(d.GmeanSlowdownVsTyr[sys]))
	}
	tb.Add(gm...)
	report := "Fig. 12: execution time (cycles) across all apps and systems\n\n" + tb.String() +
		"\n(\"gmean vs tyr\" is each system's geometric-mean slowdown relative to TYR;\n" +
		" the paper reports 68x for vN, 22.7x seqdf, 21.7x ordered, 0.77x... i.e. ~1.3x for unordered)\n"
	return d, report, nil
}

// Fig13Data holds per-system IPC distributions aggregated across apps.
type Fig13Data struct {
	Hist   map[string]map[int]int64
	Median map[string]int
	P90    map[string]int
}

// Fig13 reproduces the IPC CDF comparison.
func Fig13(cfg ExpConfig) (*Fig13Data, string, error) {
	cfg = cfg.withDefaults()
	_, runs, err := suiteRuns("fig13", cfg)
	if err != nil {
		return nil, "", err
	}
	d := &Fig13Data{Hist: map[string]map[int]int64{}, Median: map[string]int{}, P90: map[string]int{}}
	for _, sys := range Systems {
		d.Hist[sys] = map[int]int64{}
	}
	for _, rs := range runs {
		for ipc, n := range rs.IPCHist {
			d.Hist[rs.System][ipc] += n
		}
	}
	for _, sys := range Systems {
		d.Median[sys] = metrics.Quantile(d.Hist[sys], 0.5)
		d.P90[sys] = metrics.Quantile(d.Hist[sys], 0.9)
	}

	tb := &metrics.Table{Headers: []string{"system", "p25 IPC", "median IPC", "p75 IPC", "p90 IPC", "max IPC"}}
	for _, sys := range Systems {
		tb.Add(sys,
			fmt.Sprint(metrics.Quantile(d.Hist[sys], 0.25)),
			fmt.Sprint(d.Median[sys]),
			fmt.Sprint(metrics.Quantile(d.Hist[sys], 0.75)),
			fmt.Sprint(d.P90[sys]),
			fmt.Sprint(metrics.Quantile(d.Hist[sys], 1.0)))
	}
	report := "Fig. 13: IPC distribution (CDF quantiles) of each system across all apps\n\n" + tb.String()
	return d, report, nil
}

// Fig14Data holds live-state statistics for every app on every system.
type Fig14Data struct {
	Apps []string
	Peak map[string]map[string]int64
	Mean map[string]map[string]float64
	// GmeanPeakReductionVsUnordered is gmean over apps of
	// peak(unordered)/peak(tyr) — the paper's 572.8x headline.
	GmeanPeakReductionVsUnordered float64
}

// Fig14 reproduces the live-token comparison (peak and mean).
func Fig14(cfg ExpConfig) (*Fig14Data, string, error) {
	cfg = cfg.withDefaults()
	names, runs, err := suiteRuns("fig14", cfg)
	if err != nil {
		return nil, "", err
	}
	d := &Fig14Data{Apps: names, Peak: map[string]map[string]int64{}, Mean: map[string]map[string]float64{}}
	for _, sys := range Systems {
		d.Peak[sys] = map[string]int64{}
		d.Mean[sys] = map[string]float64{}
	}
	for _, rs := range runs {
		d.Peak[rs.System][rs.App] = rs.PeakLive
		d.Mean[rs.System][rs.App] = rs.MeanLive
	}
	var ratios []float64
	for _, app := range d.Apps {
		ratios = append(ratios, float64(d.Peak[SysUnordered][app])/float64(d.Peak[SysTyr][app]))
	}
	d.GmeanPeakReductionVsUnordered = metrics.Gmean(ratios)

	tb := &metrics.Table{Headers: append([]string{"app (peak/mean)"}, Systems...)}
	for _, app := range d.Apps {
		row := []string{app}
		for _, sys := range Systems {
			row = append(row, fmt.Sprintf("%s/%s",
				metrics.FormatCount(d.Peak[sys][app]),
				metrics.FormatCount(int64(d.Mean[sys][app]))))
		}
		tb.Add(row...)
	}
	report := "Fig. 14: live tokens during execution, peak/mean per app and system\n\n" + tb.String() +
		fmt.Sprintf("\nTYR reduces peak state vs unordered by %s (gmean; paper: 572.8x at full input sizes)\n",
			metrics.FormatRatio(d.GmeanPeakReductionVsUnordered))
	return d, report, nil
}

// Fig15Data holds the issue-width sweep.
type Fig15Data struct {
	Widths  []int
	Systems []string
	Cycles  map[string]map[int]int64
	Peak    map[string]map[int]int64
}

// Fig15 reproduces the scalability sweep: execution time and live state on
// dmv across issue widths.
func Fig15(cfg ExpConfig) (*Fig15Data, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "dmv")
	systems := []string{SysSeqDF, SysOrdered, SysUnordered, SysTyr}
	d := &Fig15Data{
		Widths:  []int{16, 32, 64, 128, 256, 512},
		Systems: systems,
		Cycles:  map[string]map[int]int64{},
		Peak:    map[string]map[int]int64{},
	}
	var cells []cell
	for _, sys := range systems {
		d.Cycles[sys] = map[int]int64{}
		d.Peak[sys] = map[int]int64{}
		for _, w := range d.Widths {
			sc := cfg.sys()
			sc.IssueWidth = w
			cells = append(cells, cell{app, sys, sc})
		}
	}
	runs, err := runCells("fig15", cells)
	if err != nil {
		return nil, "", err
	}
	for i, rs := range runs {
		w := cells[i].cfg.IssueWidth
		d.Cycles[rs.System][w] = rs.Cycles
		d.Peak[rs.System][w] = rs.PeakLive
	}

	var b strings.Builder
	b.WriteString("Fig. 15: execution time (top) and peak state (bottom) vs issue width, dmv\n\n")
	tb := &metrics.Table{Headers: append([]string{"cycles @width"}, intHeaders(d.Widths)...)}
	for _, sys := range systems {
		row := []string{sys}
		for _, w := range d.Widths {
			row = append(row, metrics.FormatCount(d.Cycles[sys][w]))
		}
		tb.Add(row...)
	}
	b.WriteString(tb.String())
	b.WriteString("\n")
	tb2 := &metrics.Table{Headers: append([]string{"peak live @width"}, intHeaders(d.Widths)...)}
	for _, sys := range systems {
		row := []string{sys}
		for _, w := range d.Widths {
			row = append(row, metrics.FormatCount(d.Peak[sys][w]))
		}
		tb2.Add(row...)
	}
	b.WriteString(tb2.String())
	return d, b.String(), nil
}

// Fig16Data holds the tag-width sweep on spmspm.
type Fig16Data struct {
	TagWidths []int
	Cycles    map[int]int64
	Peak      map[int]int64
	Traces    map[int][]metrics.TracePoint
}

// Fig16 reproduces state-vs-time across local tag-space sizes on spmspm.
func Fig16(cfg ExpConfig) (*Fig16Data, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "spmspm")
	d := &Fig16Data{
		TagWidths: []int{2, 4, 8, 16, 32, 64, 128, 512},
		Cycles:    map[int]int64{},
		Peak:      map[int]int64{},
		Traces:    map[int][]metrics.TracePoint{},
	}
	var cells []cell
	for _, tags := range d.TagWidths {
		sc := cfg.sys()
		sc.Tags = tags
		cells = append(cells, cell{app, SysTyr, sc})
	}
	runs, err := runCells("fig16", cells)
	if err != nil {
		return nil, "", err
	}
	td := newTraceData(app.Name)
	for i, rs := range runs {
		tags := d.TagWidths[i]
		d.Cycles[tags] = rs.Cycles
		d.Peak[tags] = rs.PeakLive
		d.Traces[tags] = rs.Trace
		// Distinct leading letters keep the plot markers unambiguous.
		td.add(fmt.Sprintf("%c: %d tags", 'a'+i, tags), rs)
	}
	report := "Fig. 16: TYR state vs execution time across tags-per-block, spmspm\n\n" +
		td.render("(one marker letter per tag count)")
	return d, report, nil
}

// Fig17Data holds the issue-width x tag-count grid on spmspv.
type Fig17Data struct {
	Widths []int
	Tags   []int
	IPC    map[[2]int]float64
	Peak   map[[2]int]int64
	// Proportional-scaling line: tags = width/2 (the paper's gray line).
	PropWidths []int
	PropIPC    []float64
	PropPeak   []int64
}

// Fig17 reproduces the IPC/state sensitivity grid.
func Fig17(cfg ExpConfig) (*Fig17Data, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "spmspv")
	d := &Fig17Data{
		Widths: []int{8, 16, 32, 64, 128, 256},
		Tags:   []int{2, 4, 8, 16, 32, 64, 128},
		IPC:    map[[2]int]float64{},
		Peak:   map[[2]int]int64{},
	}
	var cells []cell
	add := func(w, tg int) {
		sc := cfg.sys()
		sc.IssueWidth = w
		sc.Tags = tg
		cells = append(cells, cell{app, SysTyr, sc})
	}
	for _, w := range d.Widths {
		for _, tg := range d.Tags {
			add(w, tg)
		}
	}
	grid := len(cells)
	for _, w := range d.Widths {
		add(w, max(w/2, 2))
	}
	runs, err := runCells("fig17", cells)
	if err != nil {
		return nil, "", err
	}
	for i, rs := range runs {
		w, tg := cells[i].cfg.IssueWidth, cells[i].cfg.Tags
		if i < grid {
			d.IPC[[2]int{w, tg}] = rs.IPC()
			d.Peak[[2]int{w, tg}] = rs.PeakLive
			continue
		}
		d.PropWidths = append(d.PropWidths, w)
		d.PropIPC = append(d.PropIPC, rs.IPC())
		d.PropPeak = append(d.PropPeak, rs.PeakLive)
	}

	var b strings.Builder
	b.WriteString("Fig. 17: TYR IPC (a) and peak state (b) vs issue width and tags per block, spmspv\n\n")
	tb := &metrics.Table{Headers: append([]string{"IPC w\\tags"}, intHeaders(d.Tags)...)}
	for _, w := range d.Widths {
		row := []string{fmt.Sprint(w)}
		for _, tg := range d.Tags {
			row = append(row, fmt.Sprintf("%.1f", d.IPC[[2]int{w, tg}]))
		}
		tb.Add(row...)
	}
	b.WriteString(tb.String())
	b.WriteString("\n")
	tb2 := &metrics.Table{Headers: append([]string{"peak w\\tags"}, intHeaders(d.Tags)...)}
	for _, w := range d.Widths {
		row := []string{fmt.Sprint(w)}
		for _, tg := range d.Tags {
			row = append(row, metrics.FormatCount(d.Peak[[2]int{w, tg}]))
		}
		tb2.Add(row...)
	}
	b.WriteString(tb2.String())
	b.WriteString("\n")
	tb3 := &metrics.Table{Headers: []string{"width (tags=w/2)", "IPC", "peak live"}}
	for i, w := range d.PropWidths {
		tb3.Add(fmt.Sprint(w), fmt.Sprintf("%.1f", d.PropIPC[i]), metrics.FormatCount(d.PropPeak[i]))
	}
	b.WriteString("(c) proportional scaling, tags = width/2:\n" + tb3.String())
	return d, b.String(), nil
}

// Fig18Data holds the per-region tag-tuning result on dmm.
type Fig18Data struct {
	BaselineTags    int
	OuterTags       int
	BaselineCycles  int64
	TunedCycles     int64
	BaselinePeak    int64
	TunedPeak       int64
	PeakReduction   float64 // fraction, e.g. 0.285 for 28.5%
	SlowdownPercent float64
}

// Fig18 reproduces per-region tag tuning: restricting the outermost loop
// of dmm to few tags reduces peak state with minimal performance impact.
// The effect strengthens with input size (the outer loop's surplus
// parallelism grows while the useful inner parallelism saturates), so this
// experiment uses a somewhat larger dmm than the shared suite.
func Fig18(cfg ExpConfig) (*Fig18Data, string, error) {
	cfg = cfg.withDefaults()
	var n int
	switch cfg.Scale {
	case apps.ScaleTiny:
		n = 16
	case apps.ScaleMedium:
		n = 56
	default:
		n = 36
	}
	app := apps.Dmm(n, 2)
	d := &Fig18Data{BaselineTags: cfg.Tags, OuterTags: 8}

	sc := cfg.sys()
	sc.BlockTags = map[string]int{app.Outer: d.OuterTags}
	runs, err := runCells("fig18", []cell{{app, SysTyr, cfg.sys()}, {app, SysTyr, sc}})
	if err != nil {
		return nil, "", err
	}
	base, tuned := runs[0], runs[1]
	d.BaselineCycles, d.TunedCycles = base.Cycles, tuned.Cycles
	d.BaselinePeak, d.TunedPeak = base.PeakLive, tuned.PeakLive
	if base.PeakLive > 0 {
		d.PeakReduction = 1 - float64(tuned.PeakLive)/float64(base.PeakLive)
	}
	if base.Cycles > 0 {
		d.SlowdownPercent = (float64(tuned.Cycles)/float64(base.Cycles) - 1) * 100
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 18: per-region tag tuning on dmm (%s)\n\n", app.Description)
	tb := &metrics.Table{Headers: []string{"config", "cycles", "peak live"}}
	tb.Add(fmt.Sprintf("all blocks %d tags", d.BaselineTags),
		metrics.FormatCount(d.BaselineCycles), metrics.FormatCount(d.BaselinePeak))
	tb.Add(fmt.Sprintf("outer loop %d tags", d.OuterTags),
		metrics.FormatCount(d.TunedCycles), metrics.FormatCount(d.TunedPeak))
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\npeak state reduced %.1f%% at %.1f%% slowdown (paper: 28.5%% with minimal impact)\n",
		d.PeakReduction*100, d.SlowdownPercent)
	return d, b.String(), nil
}

// Table2Data describes the workloads and their compiled forms.
type Table2Data struct {
	Rows []Table2Row
}

// Table2Row is one workload's entry.
type Table2Row struct {
	App         string
	Description string
	DynInstrs   int64
	StaticNodes int
	Blocks      int
	TagOps      int
}

// Table2 reproduces the application table, augmented with compiled-graph
// statistics.
func Table2(cfg ExpConfig) (*Table2Data, string, error) {
	cfg = cfg.withDefaults()
	var cells []cell
	for _, app := range apps.Suite(cfg.Scale) {
		cells = append(cells, cell{app, SysVN, cfg.sys()})
	}
	runs, err := runCells("tab2", cells)
	if err != nil {
		return nil, "", err
	}
	d := &Table2Data{}
	for i, rs := range runs {
		app := cells[i].app
		g, err := app.Tagged()
		if err != nil {
			return nil, "", err
		}
		st := g.ComputeStats()
		d.Rows = append(d.Rows, Table2Row{
			App:         app.Name,
			Description: app.Description,
			DynInstrs:   rs.Fired,
			StaticNodes: st.Nodes,
			Blocks:      st.Blocks,
			TagOps:      st.TagOps,
		})
	}
	tb := &metrics.Table{Headers: []string{"app", "input", "dyn instrs (vN)", "static nodes", "blocks", "tag ops"}}
	for _, r := range d.Rows {
		tb.Add(r.App, r.Description, metrics.FormatCount(r.DynInstrs),
			fmt.Sprint(r.StaticNodes), fmt.Sprint(r.Blocks), fmt.Sprint(r.TagOps))
	}
	report := "Table II: applications, inputs (scaled; see DESIGN.md §5), and compiled graphs\n\n" + tb.String()
	return d, report, nil
}

// experiments is the one registry: every experiment in presentation
// order (the paper's artifacts, then the Sec. VIII ablations) with its
// entry point. The entries capture nothing, so the table is static data
// that only binaries running experiments link; tyrd and tyrsim do not.
var experiments = []struct {
	name string
	run  func(ExpConfig) (any, string, error)
}{
	{"tab2", func(c ExpConfig) (any, string, error) { return erase(Table2(c)) }},
	{"fig2", func(c ExpConfig) (any, string, error) { return erase(Fig2(c)) }},
	{"fig9", func(c ExpConfig) (any, string, error) { return erase(Fig9(c)) }},
	{"fig11", func(c ExpConfig) (any, string, error) { return erase(Fig11(c)) }},
	{"fig12", func(c ExpConfig) (any, string, error) { return erase(Fig12(c)) }},
	{"fig13", func(c ExpConfig) (any, string, error) { return erase(Fig13(c)) }},
	{"fig14", func(c ExpConfig) (any, string, error) { return erase(Fig14(c)) }},
	{"fig15", func(c ExpConfig) (any, string, error) { return erase(Fig15(c)) }},
	{"fig16", func(c ExpConfig) (any, string, error) { return erase(Fig16(c)) }},
	{"fig17", func(c ExpConfig) (any, string, error) { return erase(Fig17(c)) }},
	{"fig18", func(c ExpConfig) (any, string, error) { return erase(Fig18(c)) }},
	{"abl-tags", func(c ExpConfig) (any, string, error) { return erase(AblTags(c)) }},
	{"abl-queue", func(c ExpConfig) (any, string, error) { return erase(AblQueue(c)) }},
	{"uarch", func(c ExpConfig) (any, string, error) { return erase(Uarch(c)) }},
	{"latency", func(c ExpConfig) (any, string, error) { return erase(Latency(c)) }},
	{"locality", func(c ExpConfig) (any, string, error) { return erase(Locality(c)) }},
}

// Experiments lists all experiment names in presentation order.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// RunExperiment dispatches by name and returns the experiment's data (the
// value ExportCSV renders) and its rendered report.
func RunExperiment(name string, cfg ExpConfig) (data any, report string, err error) {
	for _, e := range experiments {
		if e.name == name {
			return e.run(cfg)
		}
	}
	names := Experiments()
	sort.Strings(names)
	return nil, "", fmt.Errorf("harness: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}

// erase returns an experiment's results with its data as an interface.
func erase[T any](data T, report string, err error) (any, string, error) {
	return data, report, err
}

func intHeaders(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}
