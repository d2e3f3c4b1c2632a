package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/cancel"
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
	// Ctx, when non-nil, bounds the experiment: parallel sweeps stop
	// claiming cells once it is done and report its error. Nil means no
	// deadline (context.Background).
	Ctx context.Context
	// Stop, when non-nil, is handed to every run's engine so an armed flag
	// aborts the in-flight simulation within one cycle boundary.
	Stop *cancel.Flag
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
	return SysConfig{IssueWidth: c.IssueWidth, Tags: c.Tags, Telemetry: c.Telemetry, Stop: c.Stop}
}

func (c ExpConfig) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// TraceData holds state-over-time traces for one app across labeled runs.
type TraceData struct {
	App    string
	Labels []string // presentation order
	Series map[string][]metrics.TracePoint
	Stats  map[string]metrics.RunStats
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
	d := &TraceData{App: app.Name, Series: map[string][]metrics.TracePoint{}, Stats: map[string]metrics.RunStats{}}
	for _, sys := range Systems {
		rs, err := Run(app, sys, cfg.sys())
		if err != nil {
			return nil, "", fmt.Errorf("fig2: %s: %w", sys, err)
		}
		d.Labels = append(d.Labels, sys)
		d.Series[sys] = rs.Trace
		d.Stats[sys] = rs
	}
	return d, d.render("Fig. 2: live state over time, spmspm (" + app.Description + ")"), nil
}

// Fig9 reproduces the tag-width trace study on dmv: TYR at several local
// tag-space sizes, against unlimited-tag unordered dataflow.
func Fig9(cfg ExpConfig) (*TraceData, string, error) {
	cfg = cfg.withDefaults()
	app := apps.Find(apps.Suite(cfg.Scale), "dmv")
	d := &TraceData{App: app.Name, Series: map[string][]metrics.TracePoint{}, Stats: map[string]metrics.RunStats{}}
	for _, tags := range []int{2, 8, 64} {
		label := fmt.Sprintf("%d-tags", tags)
		sc := cfg.sys()
		sc.Tags = tags
		rs, err := Run(app, SysTyr, sc)
		if err != nil {
			return nil, "", fmt.Errorf("fig9: tags=%d: %w", tags, err)
		}
		d.Labels = append(d.Labels, label)
		d.Series[label] = rs.Trace
		d.Stats[label] = rs
	}
	rs, err := Run(app, SysUnordered, cfg.sys())
	if err != nil {
		return nil, "", fmt.Errorf("fig9: unordered: %w", err)
	}
	d.Labels = append(d.Labels, "unlimited")
	d.Series["unlimited"] = rs.Trace
	d.Stats["unlimited"] = rs
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

	// The bounded-global leg goes through the shared Run entry point like
	// every other leg: its telemetry (including the structured deadlock
	// post-mortem) is recorded uniformly. SkipCheck because a deadlocked
	// run has no output to validate.
	sc := cfg.sys()
	sc.GlobalTags = d.GlobalTags
	sc.SkipCheck = true
	rs, err := Run(app, SysUnordered, sc)
	if err != nil {
		return nil, "", fmt.Errorf("fig11: bounded unordered: %w", err)
	}
	d.Deadlocked = rs.Deadlocked
	d.DeadlockCycle = rs.Cycles
	d.LiveAtDeadlock = rs.PeakLive
	if rs.Deadlock != nil {
		d.StarvedAllocs = rs.Deadlock.StarvedAllocs
		d.StarvedLabels = append(d.StarvedLabels, rs.Deadlock.Summary)
		d.StarvedSpaces = rs.Deadlock.Spaces
	}

	// TYR contrast:
	tc := cfg.sys()
	tc.Tags = 2
	trs, err := Run(app, SysTyr, tc)
	if err != nil {
		return nil, "", fmt.Errorf("fig11: tyr: %w", err)
	}
	d.TyrCompleted = trs.Completed
	d.TyrCycles = trs.Cycles

	urs, err := Run(app, SysUnordered, cfg.sys())
	if err != nil {
		return nil, "", fmt.Errorf("fig11: unlimited: %w", err)
	}
	d.UnlimitedTagsNeeded = urs.PeakTags

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
	suite := apps.Suite(cfg.Scale)
	d := &Fig12Data{Cycles: map[string]map[string]int64{}, GmeanSlowdownVsTyr: map[string]float64{}}
	for _, sys := range Systems {
		d.Cycles[sys] = map[string]int64{}
	}
	for _, app := range suite {
		d.Apps = append(d.Apps, app.Name)
	}
	results := make([]metrics.RunStats, len(suite)*len(Systems))
	err := parallelDo(cfg.ctx(), len(results), func(i int) error {
		app, sys := suite[i/len(Systems)], Systems[i%len(Systems)]
		rs, err := Run(app, sys, cfg.sys())
		if err != nil {
			return fmt.Errorf("fig12: %s/%s: %w", app.Name, sys, err)
		}
		results[i] = rs
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for i, rs := range results {
		d.Cycles[Systems[i%len(Systems)]][suite[i/len(Systems)].Name] = rs.Cycles
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
	suite := apps.Suite(cfg.Scale)
	d := &Fig13Data{Hist: map[string]map[int]int64{}, Median: map[string]int{}, P90: map[string]int{}}
	for _, sys := range Systems {
		d.Hist[sys] = map[int]int64{}
	}
	results := make([]metrics.RunStats, len(suite)*len(Systems))
	err := parallelDo(cfg.ctx(), len(results), func(i int) error {
		app, sys := suite[i/len(Systems)], Systems[i%len(Systems)]
		rs, err := Run(app, sys, cfg.sys())
		if err != nil {
			return fmt.Errorf("fig13: %s/%s: %w", app.Name, sys, err)
		}
		results[i] = rs
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for i, rs := range results {
		sys := Systems[i%len(Systems)]
		for ipc, n := range rs.IPCHist {
			d.Hist[sys][ipc] += n
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
	suite := apps.Suite(cfg.Scale)
	d := &Fig14Data{Peak: map[string]map[string]int64{}, Mean: map[string]map[string]float64{}}
	for _, sys := range Systems {
		d.Peak[sys] = map[string]int64{}
		d.Mean[sys] = map[string]float64{}
	}
	for _, app := range suite {
		d.Apps = append(d.Apps, app.Name)
	}
	results := make([]metrics.RunStats, len(suite)*len(Systems))
	err := parallelDo(cfg.ctx(), len(results), func(i int) error {
		app, sys := suite[i/len(Systems)], Systems[i%len(Systems)]
		rs, err := Run(app, sys, cfg.sys())
		if err != nil {
			return fmt.Errorf("fig14: %s/%s: %w", app.Name, sys, err)
		}
		results[i] = rs
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for i, rs := range results {
		sys, app := Systems[i%len(Systems)], suite[i/len(Systems)]
		d.Peak[sys][app.Name] = rs.PeakLive
		d.Mean[sys][app.Name] = rs.MeanLive
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
	for _, sys := range systems {
		d.Cycles[sys] = map[int]int64{}
		d.Peak[sys] = map[int]int64{}
		for _, w := range d.Widths {
			sc := cfg.sys()
			sc.IssueWidth = w
			rs, err := Run(app, sys, sc)
			if err != nil {
				return nil, "", fmt.Errorf("fig15: %s w=%d: %w", sys, w, err)
			}
			d.Cycles[sys][w] = rs.Cycles
			d.Peak[sys][w] = rs.PeakLive
		}
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
	td := &TraceData{App: app.Name, Series: map[string][]metrics.TracePoint{}, Stats: map[string]metrics.RunStats{}}
	for i, tags := range d.TagWidths {
		sc := cfg.sys()
		sc.Tags = tags
		rs, err := Run(app, SysTyr, sc)
		if err != nil {
			return nil, "", fmt.Errorf("fig16: tags=%d: %w", tags, err)
		}
		d.Cycles[tags] = rs.Cycles
		d.Peak[tags] = rs.PeakLive
		d.Traces[tags] = rs.Trace
		// Distinct leading letters keep the plot markers unambiguous.
		label := fmt.Sprintf("%c: %d tags", 'a'+i, tags)
		td.Labels = append(td.Labels, label)
		td.Series[label] = rs.Trace
		td.Stats[label] = rs
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
	grid := make([]metrics.RunStats, len(d.Widths)*len(d.Tags))
	err := parallelDo(cfg.ctx(), len(grid), func(i int) error {
		w, tg := d.Widths[i/len(d.Tags)], d.Tags[i%len(d.Tags)]
		sc := cfg.sys()
		sc.IssueWidth = w
		sc.Tags = tg
		rs, err := Run(app, SysTyr, sc)
		if err != nil {
			return fmt.Errorf("fig17: w=%d t=%d: %w", w, tg, err)
		}
		grid[i] = rs
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for i, rs := range grid {
		key := [2]int{d.Widths[i/len(d.Tags)], d.Tags[i%len(d.Tags)]}
		d.IPC[key] = rs.IPC()
		d.Peak[key] = rs.PeakLive
	}
	for _, w := range d.Widths {
		tg := w / 2
		if tg < 2 {
			tg = 2
		}
		sc := cfg.sys()
		sc.IssueWidth = w
		sc.Tags = tg
		rs, err := Run(app, SysTyr, sc)
		if err != nil {
			return nil, "", fmt.Errorf("fig17: proportional w=%d: %w", w, err)
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

	base, err := Run(app, SysTyr, cfg.sys())
	if err != nil {
		return nil, "", fmt.Errorf("fig18: baseline: %w", err)
	}
	sc := cfg.sys()
	sc.BlockTags = map[string]int{app.Outer: d.OuterTags}
	tuned, err := Run(app, SysTyr, sc)
	if err != nil {
		return nil, "", fmt.Errorf("fig18: tuned: %w", err)
	}
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
	d := &Table2Data{}
	for _, app := range apps.Suite(cfg.Scale) {
		rs, err := Run(app, SysVN, cfg.sys())
		if err != nil {
			return nil, "", fmt.Errorf("table2: %s: %w", app.Name, err)
		}
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

// Experiments lists all experiment names: the paper's artifacts in
// presentation order, then the Sec. VIII ablations.
var Experiments = []string{
	"tab2", "fig2", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"abl-tags", "abl-queue", "uarch", "latency", "locality",
}

// RunExperiment dispatches by name and returns the experiment's data (the
// value ExportCSV renders) and its rendered report.
func RunExperiment(name string, cfg ExpConfig) (data any, report string, err error) {
	switch name {
	case "tab2":
		return erase(Table2(cfg))
	case "fig2":
		return erase(Fig2(cfg))
	case "fig9":
		return erase(Fig9(cfg))
	case "fig11":
		return erase(Fig11(cfg))
	case "fig12":
		return erase(Fig12(cfg))
	case "fig13":
		return erase(Fig13(cfg))
	case "fig14":
		return erase(Fig14(cfg))
	case "fig15":
		return erase(Fig15(cfg))
	case "fig16":
		return erase(Fig16(cfg))
	case "fig17":
		return erase(Fig17(cfg))
	case "fig18":
		return erase(Fig18(cfg))
	case "abl-tags":
		return erase(AblTags(cfg))
	case "abl-queue":
		return erase(AblQueue(cfg))
	case "uarch":
		return erase(Uarch(cfg))
	case "latency":
		return erase(Latency(cfg))
	case "locality":
		return erase(Locality(cfg))
	}
	names := append([]string(nil), Experiments...)
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
