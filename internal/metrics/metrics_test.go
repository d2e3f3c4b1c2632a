package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestGmean(t *testing.T) {
	if g := Gmean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Gmean(2,8) = %f, want 4", g)
	}
	if g := Gmean([]float64{5}); math.Abs(g-5) > 1e-9 {
		t.Errorf("Gmean(5) = %f, want 5", g)
	}
	if g := Gmean(nil); g != 0 {
		t.Errorf("Gmean(nil) = %f, want 0", g)
	}
	if g := Gmean([]float64{1, 0}); g != 0 {
		t.Errorf("Gmean with zero = %f, want 0", g)
	}
}

func TestGmeanScaleInvariance(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := float64(a)+1, float64(b)+1
		g := Gmean([]float64{x, y})
		g2 := Gmean([]float64{2 * x, 2 * y})
		return math.Abs(g2-2*g) < 1e-9*g2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(100, 25); s != 4 {
		t.Errorf("Speedup = %f, want 4", s)
	}
	if s := Speedup(100, 0); s != 0 {
		t.Errorf("Speedup by zero = %f, want 0", s)
	}
}

func TestCDF(t *testing.T) {
	hist := map[int]int64{1: 5, 10: 3, 100: 2}
	xs, ys := CDF(hist)
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 100 {
		t.Fatalf("xs = %v", xs)
	}
	if math.Abs(ys[0]-0.5) > 1e-9 || math.Abs(ys[2]-1.0) > 1e-9 {
		t.Errorf("ys = %v", ys)
	}
}

func TestQuantile(t *testing.T) {
	hist := map[int]int64{1: 50, 8: 40, 64: 10}
	if q := Quantile(hist, 0.5); q != 1 {
		t.Errorf("p50 = %d, want 1", q)
	}
	if q := Quantile(hist, 0.9); q != 8 {
		t.Errorf("p90 = %d, want 8", q)
	}
	if q := Quantile(hist, 1.0); q != 64 {
		t.Errorf("p100 = %d, want 64", q)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := &Table{Headers: []string{"app", "cycles"}}
	tb.Add("dmv", "123")
	tb.Add("spmspm", "7")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[2]) == 0 || len(lines[3]) == 0 || lines[2][:6] != "dmv   " {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestRenderTraces(t *testing.T) {
	series := []Series{
		{Name: "tyr", Points: []TracePoint{{0, 1}, {50, 100}, {100, 10}}},
		{Name: "unordered", Points: []TracePoint{{0, 1}, {40, 100000}, {80, 1}}},
	}
	out := RenderTraces("fig2", series, 60, 10)
	if !strings.Contains(out, "t=tyr") || !strings.Contains(out, "u=unordered") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "t") || !strings.Contains(out, "u") {
		t.Errorf("markers missing:\n%s", out)
	}
	if empty := RenderTraces("x", nil, 40, 8); !strings.Contains(empty, "no data") {
		t.Errorf("empty render = %q", empty)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[int64]string{
		5:             "5",
		9999:          "9999",
		12345:         "12.3K",
		4_500_000:     "4.5M",
		45_000_000:    "45.0M",
		2_500_000_000: "2.5G",
	}
	for v, want := range cases {
		if got := FormatCount(v); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", v, got, want)
		}
	}
	if got := FormatRatio(123.4); got != "123x" {
		t.Errorf("FormatRatio(123.4) = %q", got)
	}
	if got := FormatRatio(12.34); got != "12.3x" {
		t.Errorf("FormatRatio(12.34) = %q", got)
	}
	if got := FormatRatio(1.234); got != "1.23x" {
		t.Errorf("FormatRatio(1.234) = %q", got)
	}
}

func TestRunStatsIPC(t *testing.T) {
	r := RunStats{Cycles: 10, Fired: 40}
	if r.IPC() != 4 {
		t.Errorf("IPC = %f", r.IPC())
	}
	if (RunStats{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
}

// The LiveTrace tests pin each feed rule with literal points: Tick and
// CloseTicks as the core and ordered machines feed them, Boundary and
// CloseBoundaries as the vn and seqdf cost models do.

func TestLiveTraceTickCloseRules(t *testing.T) {
	// Seven ticks at cap 4 leave three points and a pending window at the
	// final cycle. Closing appends the window, which fills the cap: the
	// tick rule keeps all four points, while the boundary rule decimates
	// as soon as the cap is reached. The two must not be merged.
	feed := func() *LiveTrace {
		tr := NewLiveTrace(4)
		for c, live := range []int64{3, 1, 4, 1, 5, 9, 2} {
			tr.Tick(int64(c+1), live)
		}
		return &tr
	}
	ticks := feed()
	checkTrace(t, "CloseTicks", ticks.CloseTicks(7, 0), ticks.Stride(),
		[]TracePoint{{3, 4}, {4, 1}, {6, 9}, {7, 2}}, 4)
	bounds := feed()
	checkTrace(t, "CloseBoundaries", bounds.CloseBoundaries(7, 0), bounds.Stride(),
		[]TracePoint{{3, 4}, {6, 9}, {7, 2}}, 8)
}

func TestLiveTraceBoundaryMergesRepeatedClock(t *testing.T) {
	// Three boundaries at clock 3: the window landing on the point already
	// at cycle 3 merges into it and keeps the higher live value.
	tr := NewLiveTrace(8)
	for _, b := range []TracePoint{{0, 2}, {3, 1}, {3, 5}, {3, 4}, {6, 2}, {9, 3}} {
		tr.Boundary(b.Cycle, b.Live)
	}
	checkTrace(t, "repeated clock", tr.CloseBoundaries(10, 0), tr.Stride(),
		[]TracePoint{{0, 2}, {3, 5}, {9, 3}, {10, 0}}, 1)
}

func TestLiveTraceCapOne(t *testing.T) {
	// Decimation keeps the final point, so a cap of 1 holds two points.
	ticks := NewLiveTrace(1)
	for c := int64(1); c <= 9; c++ {
		ticks.Tick(c, c%4)
	}
	checkTrace(t, "ticks", ticks.CloseTicks(9, 0), ticks.Stride(),
		[]TracePoint{{3, 3}, {9, 1}}, 32)
	bounds := NewLiveTrace(1)
	for i, c := range []int64{0, 2, 5, 5, 9, 14} {
		bounds.Boundary(c, int64(i%3))
	}
	checkTrace(t, "boundaries", bounds.CloseBoundaries(15, 0), bounds.Stride(),
		[]TracePoint{{5, 2}, {15, 0}}, 32)
}

func TestLiveTraceOffAndDefault(t *testing.T) {
	off := NewLiveTrace(-1)
	off.Tick(1, 5)
	off.Boundary(2, 7)
	if pts := off.CloseTicks(2, 0); pts != nil || off.Stride() != 0 {
		t.Errorf("sampling off: CloseTicks = %v, stride %d; want nil, 0", pts, off.Stride())
	}
	if pts := off.CloseBoundaries(2, 0); pts != nil {
		t.Errorf("sampling off: CloseBoundaries = %v, want nil", pts)
	}

	// Zero selects DefaultTracePoints: one tick short of the cap, no
	// point has been decimated away.
	def := NewLiveTrace(0)
	for c := int64(1); c < DefaultTracePoints; c++ {
		def.Tick(c, c)
	}
	if pts := def.CloseTicks(DefaultTracePoints-1, 0); len(pts) != DefaultTracePoints-1 || def.Stride() != 1 {
		t.Errorf("default cap: %d points at stride %d, want %d at stride 1", len(pts), def.Stride(), DefaultTracePoints-1)
	}
}

func checkTrace(t *testing.T, name string, got []TracePoint, stride int64, want []TracePoint, wantStride int64) {
	t.Helper()
	if !slices.Equal(got, want) || stride != wantStride {
		t.Errorf("%s: %v at stride %d, want %v at stride %d", name, got, stride, want, wantStride)
	}
}

func TestHistogram(t *testing.T) {
	got := Histogram([]int64{0, 3, 0, 5})
	if len(got) != 2 || got[1] != 3 || got[3] != 5 {
		t.Errorf("Histogram = %v, want map[1:3 3:5]", got)
	}
}
