// Package metrics provides the uniform result record shared by all
// simulated architectures plus the statistics and text rendering used to
// regenerate the paper's tables and figures: geometric means, cumulative
// distributions, aligned tables, and ASCII log-scale trace plots.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultTracePoints is the live-state trace cap NewLiveTrace applies when
// an engine's config leaves TracePoints at zero: at most this many
// {cycle, live} points, decimated max-preservingly as the run grows.
const DefaultTracePoints = 4096

// TracePoint is one sample of a live-state-over-time trace.
type TracePoint struct {
	Cycle int64 `json:"cycle"`
	Live  int64 `json:"live"`
}

// LiveTrace samples live state over time into at most a capped number of
// points. Each stride window contributes its peak sample; when the cap is
// reached adjacent points merge keeping the higher one and the stride
// doubles. So however long the run, the trace keeps the true peak and the
// final point, and its cycles strictly increase.
//
// Engines feed it by one of two rules, which retain different points. The
// cycle-stepped machines call Tick once per cycle and CloseTicks at the
// end: a window closes on every cycle that is a multiple of the stride.
// The cost models call Boundary at each scope or block boundary and
// CloseBoundaries at the end: boundaries arrive at irregular clocks, so a
// window closes one stride after the last point, and a window landing on
// the last point's clock (an empty block leaves the clock unchanged)
// merges into it.
type LiveTrace struct {
	pts    []TracePoint
	limit  int
	stride int64 // 0 when sampling is off
	win    TracePoint
	winSet bool
}

// NewLiveTrace returns a trace capped at points: zero selects
// DefaultTracePoints, and a negative cap turns sampling off.
func NewLiveTrace(points int) LiveTrace {
	if points == 0 {
		points = DefaultTracePoints
	}
	if points < 0 {
		return LiveTrace{}
	}
	return LiveTrace{limit: points, stride: 1}
}

// Stride returns the cycle stride between retained points (0 when
// sampling is off).
func (t *LiveTrace) Stride() int64 { return t.stride }

// observe folds one sample into the pending window's peak.
//
//tyr:hotpath
func (t *LiveTrace) observe(cycle, live int64) {
	if !t.winSet || live > t.win.Live {
		t.win = TracePoint{Cycle: cycle, Live: live}
		t.winSet = true
	}
}

// Tick records the live state at the end of a cycle.
//
//tyr:hotpath
func (t *LiveTrace) Tick(cycle, live int64) {
	if t.stride == 0 {
		return
	}
	t.observe(cycle, live)
	if cycle%t.stride != 0 {
		return
	}
	t.pts = append(t.pts, t.win)
	t.winSet = false
	if len(t.pts) >= t.limit {
		t.halve()
	}
}

// Boundary records the live state at a boundary reached at clock cycle.
//
//tyr:hotpath
func (t *LiveTrace) Boundary(cycle, live int64) {
	if t.stride == 0 {
		return
	}
	t.observe(cycle, live)
	if n := len(t.pts); n > 0 && cycle-t.pts[n-1].Cycle < t.stride {
		return
	}
	t.closeWindow()
}

// closeWindow appends the pending window's peak under the boundary rule:
// a window landing on the last point's cycle merges into it.
//
//tyr:hotpath
func (t *LiveTrace) closeWindow() {
	if !t.winSet {
		return
	}
	t.winSet = false
	if n := len(t.pts); n > 0 && t.win.Cycle <= t.pts[n-1].Cycle {
		if t.win.Live > t.pts[n-1].Live {
			t.pts[n-1].Live = t.win.Live
		}
		return
	}
	t.pts = append(t.pts, t.win)
	if len(t.pts) >= t.limit {
		t.halve()
	}
}

// CloseTicks ends a Tick-fed trace at the run's final cycle and live
// state and returns its points (nil when sampling is off).
func (t *LiveTrace) CloseTicks(cycle, live int64) []TracePoint {
	if t.stride == 0 {
		return nil
	}
	if t.winSet {
		t.pts = append(t.pts, t.win)
		t.winSet = false
	}
	return t.close(cycle, live)
}

// CloseBoundaries ends a Boundary-fed trace at the run's final clock and
// live state and returns its points (nil when sampling is off).
func (t *LiveTrace) CloseBoundaries(cycle, live int64) []TracePoint {
	if t.stride == 0 {
		return nil
	}
	t.closeWindow()
	return t.close(cycle, live)
}

// close appends the final state unless a point already sits at its cycle,
// then re-imposes the cap.
func (t *LiveTrace) close(cycle, live int64) []TracePoint {
	if n := len(t.pts); n == 0 || t.pts[n-1].Cycle < cycle {
		t.pts = append(t.pts, TracePoint{Cycle: cycle, Live: live})
	}
	for len(t.pts) > t.limit && len(t.pts) >= 3 {
		t.halve()
	}
	return t.pts
}

// halve decimates the points and doubles the stride.
func (t *LiveTrace) halve() {
	t.pts = decimate(t.pts)
	t.stride *= 2
}

// decimate halves a trace by merging adjacent pairs, keeping each pair's
// higher-live point. The final point is never merged away, so the end of
// the run survives any number of decimations.
func decimate(pts []TracePoint) []TracePoint {
	if len(pts) < 3 {
		return pts
	}
	last := pts[len(pts)-1]
	body := pts[:len(pts)-1]
	kept := pts[:0]
	for i := 0; i < len(body); i += 2 {
		p := body[i]
		if i+1 < len(body) && body[i+1].Live > p.Live {
			p = body[i+1]
		}
		kept = append(kept, p)
	}
	return append(kept, last)
}

// Histogram turns a dense count slice, indexed by value, into the sparse
// value -> count map RunStats.IPCHist carries, dropping zero counts.
func Histogram(counts []int64) map[int]int64 {
	hist := make(map[int]int64)
	for v, c := range counts {
		if c != 0 {
			hist[v] = c
		}
	}
	return hist
}

// RunStats is the architecture-independent summary of one run. The JSON
// field names are the machine-readable telemetry schema (tyr-telemetry/v1)
// emitted by the harness and CLIs.
type RunStats struct {
	System     string        `json:"system"`
	App        string        `json:"app"`
	Completed  bool          `json:"completed"`
	Deadlocked bool          `json:"deadlocked,omitempty"`
	Cycles     int64         `json:"cycles"`
	Fired      int64         `json:"fired"`
	PeakLive   int64         `json:"peak_live"`
	MeanLive   float64       `json:"mean_live"`
	IPCHist    map[int]int64 `json:"ipc_hist,omitempty"`
	Trace      []TracePoint  `json:"trace,omitempty"`
	PeakTags   int           `json:"peak_tags,omitempty"`
	// Note records the machine configuration that produced the run (tag
	// policy, pool sizes, queue depths), plus deadlock details when the
	// run deadlocked.
	Note string `json:"note,omitempty"`
	// TraceID links the run to the serving request that produced it (the
	// tyrd request trace ID); empty for CLI and test runs.
	TraceID string `json:"trace_id,omitempty"`
	// WallNS is the host wall-clock time of the run in nanoseconds (the
	// simulator's own cost, not simulated time).
	WallNS int64 `json:"wall_ns,omitempty"`
	// Cache holds the memory-hierarchy counters when the run went through
	// internal/cache (nil on the ideal flat-memory path).
	Cache *CacheStats `json:"cache,omitempty"`
	// Deadlock carries the structured post-mortem when Deadlocked is true
	// (bounded unordered runs, Fig. 11): where the machine stopped and
	// which tag spaces starved which allocates.
	Deadlock *DeadlockStats `json:"deadlock,omitempty"`
	// Spaces breaks a tagged run's tag usage and live state down per
	// block, for tools that print it (tyrsim -blocks). It is never
	// serialized.
	Spaces []SpaceStats `json:"-"`
	// PeakStorePerInstr, FrameTokens and CrossTokens are the tagged
	// machine's token-store figures (core.Result documents them), for the
	// uarch study. They are never serialized.
	PeakStorePerInstr int   `json:"-"`
	FrameTokens       int64 `json:"-"`
	CrossTokens       int64 `json:"-"`
}

// SpaceStats reports tag usage and state of one local tag space.
type SpaceStats struct {
	Block     string
	Tags      int   // pool size
	PeakInUse int   // maximum tags simultaneously allocated
	Allocs    int64 // total allocations
	// PeakLiveTokens is the peak number of tokens held by this block's
	// instructions — where the live state actually sits, the signal a
	// per-region tuner wants.
	PeakLiveTokens int64
}

// DeadlockSpace reports one starved tag space at deadlock time: which
// block's contexts could not be created, under what budget.
type DeadlockSpace struct {
	Block   string `json:"block"`   // loop label, function name or "root"
	Kind    string `json:"kind"`    // "root", "loop", or "func"
	Tags    int    `json:"tags"`    // tag budget that applied (0 = unbounded)
	InUse   int    `json:"in_use"`  // tags held when the machine stopped
	Starved int    `json:"starved"` // allocates parked on this space
}

// DeadlockStats is the machine-readable deadlock post-mortem attached to a
// RunStats record when a bounded-tag run stops without completing.
type DeadlockStats struct {
	Cycle         int64           `json:"cycle"`
	LiveTokens    int64           `json:"live_tokens"`
	StarvedAllocs int             `json:"starved_allocs"`
	Spaces        []DeadlockSpace `json:"spaces,omitempty"`
	// Summary is the human-readable one-liner (DeadlockInfo.String).
	Summary string `json:"summary"`
}

// CacheLevelStats reports one cache level's counters for a run.
type CacheLevelStats struct {
	Accesses   int64   `json:"accesses"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	Writebacks int64   `json:"writebacks"`
	MissRate   float64 `json:"miss_rate"`
}

// CacheStats reports the memory hierarchy's behavior over a run. AMAT is
// the average memory access time in cycles under the configured latencies
// (hierarchy latency charged per access / total accesses), meaningful even
// when the hierarchy ran in timing-neutral passthrough mode.
type CacheStats struct {
	L1              CacheLevelStats `json:"l1"`
	L2              CacheLevelStats `json:"l2"`
	Loads           int64           `json:"loads"`
	Stores          int64           `json:"stores"`
	AMAT            float64         `json:"amat"`
	MSHRStallCycles int64           `json:"mshr_stall_cycles,omitempty"`
}

// IPC returns mean instructions per cycle.
func (r RunStats) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.Cycles)
}

// Gmean returns the geometric mean of positive values (zero if any value
// is non-positive or the slice is empty).
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Speedup returns base/other as a ratio (how much faster `other` is than
// `base` when both are execution times).
func Speedup(base, other int64) float64 {
	if other == 0 {
		return 0
	}
	return float64(base) / float64(other)
}

// CDF converts a value->count histogram into sorted (value, cumulative
// fraction) pairs.
func CDF(hist map[int]int64) (xs []int, ys []float64) {
	var total int64
	//tyr:nondet-ok -- keys are sorted before use; the integer sum is exact in any order
	for v, c := range hist {
		xs = append(xs, v)
		total += c
	}
	sort.Ints(xs)
	if total == 0 {
		return xs, nil
	}
	acc := 0.0
	for _, x := range xs {
		acc += float64(hist[x])
		ys = append(ys, acc/float64(total))
	}
	return xs, ys
}

// Quantile returns the smallest histogram value whose cumulative fraction
// reaches q (0 < q <= 1).
func Quantile(hist map[int]int64, q float64) int {
	xs, ys := CDF(hist)
	for i, y := range ys {
		if y >= q {
			return xs[i]
		}
	}
	if len(xs) > 0 {
		return xs[len(xs)-1]
	}
	return 0
}

// Table renders aligned monospace tables.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	ncols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		sep := make([]string, ncols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is one named trace for plotting.
type Series struct {
	Name   string
	Points []TracePoint
}

// RenderTraces draws an ASCII plot of live state (log10 y-axis) over
// cycles (linear x-axis), one marker letter per series — the textual
// equivalent of the paper's Figs. 2, 9, 16, and 18.
func RenderTraces(title string, series []Series, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	var maxCycle, maxLive int64
	for _, s := range series {
		for _, p := range s.Points {
			if p.Cycle > maxCycle {
				maxCycle = p.Cycle
			}
			if p.Live > maxLive {
				maxLive = p.Live
			}
		}
	}
	if maxCycle == 0 || maxLive == 0 {
		return title + ": (no data)\n"
	}
	logMax := math.Log10(float64(maxLive) + 1)

	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		marker := byte('?')
		if len(s.Name) > 0 {
			marker = s.Name[0]
		}
		for _, p := range s.Points {
			x := int(float64(p.Cycle) / float64(maxCycle) * float64(width-1))
			ly := math.Log10(float64(p.Live)+1) / logMax
			y := height - 1 - int(ly*float64(height-1))
			if x >= 0 && x < width && y >= 0 && y < height {
				grid[y][x] = marker
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s  (y: live tokens, log scale 1..%d; x: cycles 0..%d)\n", title, maxLive, maxCycle)
	for y, row := range grid {
		label := "        "
		switch y {
		case 0:
			label = fmt.Sprintf("%7d ", maxLive)
		case height - 1:
			label = fmt.Sprintf("%7d ", 0)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("        +" + strings.Repeat("-", width) + "\n")
	var legend []string
	for _, s := range series {
		if len(s.Name) > 0 {
			legend = append(legend, fmt.Sprintf("%c=%s", s.Name[0], s.Name))
		}
	}
	b.WriteString("         " + strings.Join(legend, "  ") + "\n")
	return b.String()
}

// Bar renders a horizontal bar filling frac (clamped to [0,1]) of width
// character cells — the building block of the ASCII flamegraph tables.
func Bar(frac float64, width int) string {
	if width <= 0 {
		width = 10
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	if n == 0 && frac > 0 {
		n = 1
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// FormatCount renders large counts compactly (12.3K, 4.5M, ...).
func FormatCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// FormatRatio renders a speedup/ratio with sensible precision.
func FormatRatio(r float64) string {
	switch {
	case r >= 100:
		return fmt.Sprintf("%.0fx", r)
	case r >= 10:
		return fmt.Sprintf("%.1fx", r)
	default:
		return fmt.Sprintf("%.2fx", r)
	}
}
