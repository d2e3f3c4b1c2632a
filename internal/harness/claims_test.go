package harness

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
)

// These tests assert the paper's headline claims (Sec. VII) at the small
// input scale. Exact factors depend on input size — the paper's 50M–1B
// instruction inputs yield larger gaps (68x vN, 572.8x state) than our
// scaled-down ones — so thresholds here check orderings and conservative
// magnitudes; EXPERIMENTS.md records the measured values side by side with
// the paper's.
//
// Every claim reads one memoized small-scale pass over all experiments,
// the same pass TestExperimentsGolden compares against the committed
// tyrexp output, so the package runs the small suite once.

// smallGoldenPath holds `tyrexp -scale small`'s stdout without its
// "[… completed in …]" lines. Regenerate it, only when a change is meant
// to move a reported number, with
//
//	UPDATE_GOLDEN=1 go test ./internal/harness -run TestExperimentsGolden
const smallGoldenPath = "testdata/tyrexp_small.txt"

// smallPassResult is every experiment's data at small scale and the
// reports joined the way tyrexp prints them.
type smallPassResult struct {
	data   map[string]any
	output string
	err    error
}

var smallPass = sync.OnceValue(func() smallPassResult {
	r := smallPassResult{data: map[string]any{}}
	var b strings.Builder
	for i, name := range Experiments() {
		if i > 0 {
			b.WriteString(strings.Repeat("=", 78) + "\n")
		}
		data, report, err := RunExperiment(name, ExpConfig{Scale: apps.ScaleSmall})
		if err != nil {
			r.err = fmt.Errorf("%s: %w", name, err)
			return r
		}
		r.data[name] = data
		b.WriteString(report)
	}
	r.output = b.String()
	return r
})

// smallRun returns the memoized small pass; it skips under -short.
func smallRun(t *testing.T) smallPassResult {
	t.Helper()
	if testing.Short() {
		t.Skip("claims need the small scale")
	}
	r := smallPass()
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r
}

// smallData returns experiment name's data from the memoized small pass.
func smallData[T any](t *testing.T, name string) T {
	t.Helper()
	return smallRun(t).data[name].(T)
}

// TestExperimentsGolden pins every table at small scale: the reports must
// equal the committed tyrexp output byte for byte.
func TestExperimentsGolden(t *testing.T) {
	got := smallRun(t).output
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(smallGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(smallGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := "(end of output)", "(end of file)"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n  golden: %q\n  got:    %q", smallGoldenPath, i+1, w, g)
		}
	}
}

func TestClaimFig12TyrIsFast(t *testing.T) {
	d := smallData[*Fig12Data](t, "fig12")
	// Claim: TYR vastly outperforms vN, sequential dataflow, and ordered
	// dataflow (paper gmeans: 68x, 22.7x, 21.7x), and is close to
	// unordered (paper: unordered is ~1.3x faster than TYR).
	if g := d.GmeanSlowdownVsTyr[SysVN]; g < 5 {
		t.Errorf("vN gmean slowdown vs TYR = %.2fx, want > 5x", g)
	}
	if g := d.GmeanSlowdownVsTyr[SysSeqDF]; g < 4 {
		t.Errorf("seqdf gmean slowdown vs TYR = %.2fx, want > 4x", g)
	}
	if g := d.GmeanSlowdownVsTyr[SysOrdered]; g < 3 {
		t.Errorf("ordered gmean slowdown vs TYR = %.2fx, want > 3x", g)
	}
	if g := d.GmeanSlowdownVsTyr[SysUnordered]; g < 0.15 || g > 1.05 {
		t.Errorf("unordered gmean vs TYR = %.2fx, want within [0.15, 1.05] (unordered at most as slow)", g)
	}
	// Per-app ordering: TYR beats vN on every single app.
	for _, app := range d.Apps {
		if d.Cycles[SysTyr][app] >= d.Cycles[SysVN][app] {
			t.Errorf("%s: TYR (%d) not faster than vN (%d)", app, d.Cycles[SysTyr][app], d.Cycles[SysVN][app])
		}
	}
}

func TestClaimFig13IPCOrdering(t *testing.T) {
	d := smallData[*Fig13Data](t, "fig13")
	// vN always executes exactly 1 instruction per cycle.
	if len(d.Hist[SysVN]) != 1 || d.Hist[SysVN][1] == 0 {
		t.Errorf("vN IPC histogram should be {1: n}, got %v", d.Hist[SysVN])
	}
	// TYR and unordered achieve far higher IPC than ordered/sequential
	// dataflow (paper: rarely above ten IPC for those).
	if m := d.Median[SysTyr]; m < 16 {
		t.Errorf("TYR median IPC = %d, want >= 16", m)
	}
	if m := d.Median[SysUnordered]; m < 16 {
		t.Errorf("unordered median IPC = %d, want >= 16", m)
	}
	if m := d.Median[SysOrdered]; m > 12 {
		t.Errorf("ordered median IPC = %d, want <= 12", m)
	}
	if m := d.Median[SysSeqDF]; m > 12 {
		t.Errorf("seqdf median IPC = %d, want <= 12", m)
	}
}

func TestClaimFig14TyrReducesState(t *testing.T) {
	d := smallData[*Fig14Data](t, "fig14")
	// Claim: TYR's peak state is far below unordered dataflow (paper:
	// 572.8x gmean at full scale; the ratio grows with input size and is
	// already substantial at small scale).
	if g := d.GmeanPeakReductionVsUnordered; g < 2 {
		t.Errorf("gmean peak reduction vs unordered = %.2fx, want > 2x", g)
	}
	// Per-app: TYR never exceeds unordered's peak state.
	for _, app := range d.Apps {
		if d.Peak[SysTyr][app] > d.Peak[SysUnordered][app] {
			t.Errorf("%s: TYR peak %d exceeds unordered %d", app, d.Peak[SysTyr][app], d.Peak[SysUnordered][app])
		}
	}
	// Claim: TYR has more state than vN, seqdf, and ordered (the price of
	// its parallelism; paper: 98x, 136x, 23x).
	for _, app := range d.Apps {
		for _, sys := range []string{SysVN, SysSeqDF, SysOrdered} {
			if d.Peak[sys][app] > d.Peak[SysTyr][app] {
				t.Errorf("%s: %s peak %d exceeds TYR %d", app, sys, d.Peak[sys][app], d.Peak[SysTyr][app])
			}
		}
	}
}

func TestClaimFig11DeadlockStory(t *testing.T) {
	d := smallData[*Fig11Data](t, "fig11")
	if !d.Deadlocked {
		t.Error("naive unordered with 8 global tags should deadlock on dmv")
	}
	if !d.TyrCompleted {
		t.Error("TYR with 2 tags per block should complete dmv")
	}
	if d.UnlimitedTagsNeeded <= d.GlobalTags {
		t.Errorf("unlimited run used only %d contexts; the deadlock demo needs more than %d",
			d.UnlimitedTagsNeeded, d.GlobalTags)
	}
}

func TestClaimFig15WidthScaling(t *testing.T) {
	d := smallData[*Fig15Data](t, "fig15")
	lo, hi := d.Widths[0], d.Widths[len(d.Widths)-1]
	// TYR and unordered speed up substantially with issue width.
	for _, sys := range []string{SysTyr, SysUnordered} {
		if gain := float64(d.Cycles[sys][lo]) / float64(d.Cycles[sys][hi]); gain < 2 {
			t.Errorf("%s: width %d->%d gains only %.2fx, want > 2x", sys, lo, hi, gain)
		}
	}
	// Sequential and ordered dataflow see negligible gains.
	for _, sys := range []string{SysSeqDF, SysOrdered} {
		if gain := float64(d.Cycles[sys][lo]) / float64(d.Cycles[sys][hi]); gain > 1.5 {
			t.Errorf("%s: width %d->%d gains %.2fx, expected negligible", sys, lo, hi, gain)
		}
	}
	// Live state is fairly insensitive to issue width.
	for _, sys := range d.Systems {
		lop, hip := float64(d.Peak[sys][lo]), float64(d.Peak[sys][hi])
		if lop == 0 || hip == 0 {
			t.Fatalf("%s: zero peak", sys)
		}
		ratio := lop / hip
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: peak state varies %.2fx across widths, want within 2x", sys, ratio)
		}
	}
}

func TestClaimFig16TagSweep(t *testing.T) {
	d := smallData[*Fig16Data](t, "fig16")
	// TYR completes even with 2 tags per block.
	if d.Cycles[2] == 0 {
		t.Fatal("no result for 2 tags")
	}
	// More tags -> faster, until saturation around issue width.
	if d.Cycles[2] <= d.Cycles[64] {
		t.Errorf("2 tags (%d cycles) should be slower than 64 tags (%d)", d.Cycles[2], d.Cycles[64])
	}
	// Past saturation, extra tags stop helping (within 10%).
	if r := float64(d.Cycles[64]) / float64(d.Cycles[512]); r > 1.1 {
		t.Errorf("512 tags still %.2fx faster than 64; expected saturation near issue width", r)
	}
	// Peak state grows with the tag budget.
	if d.Peak[2] >= d.Peak[64] || d.Peak[64] >= d.Peak[512] {
		t.Errorf("peak state not increasing with tags: %v", d.Peak)
	}
}

func TestClaimFig17Sensitivity(t *testing.T) {
	d := smallData[*Fig17Data](t, "fig17")
	// Fixing width, IPC rises with tags until roughly width/2.
	if a, b := d.IPC[[2]int{128, 2}], d.IPC[[2]int{128, 64}]; b < 4*a {
		t.Errorf("at width 128, 64 tags (%.1f IPC) should be >= 4x of 2 tags (%.1f)", b, a)
	}
	// Fixing tags small, IPC is insensitive to width (tags bottleneck).
	if a, b := d.IPC[[2]int{16, 2}], d.IPC[[2]int{256, 2}]; b > 1.5*a {
		t.Errorf("with 2 tags, width 256 (%.1f IPC) should not beat width 16 (%.1f) by much", b, a)
	}
	// Peak state grows with tags, not with width.
	if a, b := d.Peak[[2]int{128, 4}], d.Peak[[2]int{128, 64}]; b <= a {
		t.Errorf("peak state should grow with tags: %d vs %d", a, b)
	}
	if a, b := d.Peak[[2]int{8, 16}], d.Peak[[2]int{256, 16}]; float64(b) > 1.5*float64(a) {
		t.Errorf("peak state should not grow with width: %d -> %d", a, b)
	}
	// Proportional scaling: IPC increases monotonically along tags=w/2.
	for i := 1; i < len(d.PropIPC); i++ {
		if d.PropIPC[i] < d.PropIPC[i-1]*0.95 {
			t.Errorf("proportional-scaling IPC dips at width %d: %.1f -> %.1f",
				d.PropWidths[i], d.PropIPC[i-1], d.PropIPC[i])
		}
	}
}

func TestClaimFig18RegionTuning(t *testing.T) {
	d := smallData[*Fig18Data](t, "fig18")
	// Restricting the outer loop reduces peak state...
	if d.PeakReduction < 0.05 {
		t.Errorf("peak reduction %.1f%%, want >= 5%% (paper: 28.5%% at full size)", d.PeakReduction*100)
	}
	// ... with minimal performance impact.
	if d.SlowdownPercent > 5 {
		t.Errorf("slowdown %.1f%%, want <= 5%%", d.SlowdownPercent)
	}
}

func TestClaimAblationTagSchemes(t *testing.T) {
	d := smallData[*AblTagsData](t, "abl-tags")
	byKey := make(map[string]AblTagsRow)
	for _, r := range d.Rows {
		byKey[r.App+"/"+r.Scheme] = r
	}
	for _, app := range []string{"dmv", "spmspm"} {
		if !byKey[app+"/tyr"].Completed {
			t.Errorf("%s: TYR did not complete", app)
		}
		if !byKey[app+"/local-nogate"].Deadlocked {
			t.Errorf("%s: local pools without the readiness protocol should deadlock", app)
		}
		kb, ty := byKey[app+"/kbound-leaf"], byKey[app+"/tyr"]
		if !kb.Completed {
			t.Errorf("%s: k-bounding should complete", app)
		}
		// The ablation's point: k-bounding leaves total state unbounded
		// relative to TYR's fully bounded tag usage.
		if kb.PeakTags <= 2*ty.PeakTags {
			t.Errorf("%s: k-bound peak tags %d not clearly above TYR's %d", app, kb.PeakTags, ty.PeakTags)
		}
	}
}

func TestClaimAblationQueueDepth(t *testing.T) {
	d := smallData[*AblQueueData](t, "abl-queue")
	// Per app: state grows with depth; performance barely moves past 4.
	byApp := make(map[string]map[int]AblQueueRow)
	for _, r := range d.Rows {
		if byApp[r.App] == nil {
			byApp[r.App] = make(map[int]AblQueueRow)
		}
		byApp[r.App][r.Depth] = r
	}
	for app, rows := range byApp {
		if rows[32].PeakLive <= rows[2].PeakLive {
			t.Errorf("%s: state did not grow with queue depth", app)
		}
		if ratio := float64(rows[4].Cycles) / float64(rows[32].Cycles); ratio > 1.1 {
			t.Errorf("%s: depth 4 is %.2fx slower than 32; paper expects minimal loss", app, ratio)
		}
	}
}

func TestClaimLatencyTolerance(t *testing.T) {
	d := smallData[*LatencyData](t, "latency")
	// The ordering the paper's motivation predicts: tagged dataflow
	// tolerates memory latency far better than sequential machines, with
	// ordered dataflow in between; extra tags recover tolerance for TYR.
	if d.Slowdown[SysUnordered] > 2 {
		t.Errorf("unordered slowdown %.2fx; abundant parallelism should hide latency", d.Slowdown[SysUnordered])
	}
	if d.Slowdown[SysVN] < 4 {
		t.Errorf("vN slowdown %.2fx; a sequential machine cannot hide latency", d.Slowdown[SysVN])
	}
	if d.Slowdown[SysTyr] >= d.Slowdown[SysVN] {
		t.Errorf("TYR (%.2fx) should tolerate latency better than vN (%.2fx)",
			d.Slowdown[SysTyr], d.Slowdown[SysVN])
	}
	if d.Slowdown["tyr+"] >= d.Slowdown[SysTyr] {
		t.Errorf("4x tags (%.2fx) should beat the base TYR budget (%.2fx) under latency",
			d.Slowdown["tyr+"], d.Slowdown[SysTyr])
	}
	if d.Slowdown[SysOrdered] <= d.Slowdown[SysUnordered] {
		t.Errorf("ordered (%.2fx) should suffer more than unordered (%.2fx): FIFOs serialize behind slow loads",
			d.Slowdown[SysOrdered], d.Slowdown[SysUnordered])
	}
}

func TestClaimFig2TraceShapes(t *testing.T) {
	d := smallData[*TraceData](t, "fig2")
	// Unordered finishes fast with enormous state; TYR finishes nearly as
	// fast with far less state; vN/seqdf/ordered finish much later with
	// very little state.
	u, ty := d.Stats[SysUnordered], d.Stats[SysTyr]
	if ty.Cycles > 3*u.Cycles {
		t.Errorf("TYR (%d cycles) should be within 3x of unordered (%d)", ty.Cycles, u.Cycles)
	}
	if ty.PeakLive > u.PeakLive/2 {
		t.Errorf("TYR peak (%d) should be well below unordered (%d)", ty.PeakLive, u.PeakLive)
	}
	for _, sys := range []string{SysVN, SysSeqDF, SysOrdered} {
		if d.Stats[sys].Cycles < 2*ty.Cycles {
			t.Errorf("%s (%d cycles) should be much slower than TYR (%d)", sys, d.Stats[sys].Cycles, ty.Cycles)
		}
		if d.Stats[sys].PeakLive > ty.PeakLive {
			t.Errorf("%s peak (%d) should be below TYR (%d)", sys, d.Stats[sys].PeakLive, ty.PeakLive)
		}
	}
}
