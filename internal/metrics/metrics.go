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

// DefaultTracePoints is the live-state trace cap every engine applies when
// its config leaves TracePoints at zero: at most this many {cycle, live}
// points, decimated max-preservingly as the run grows.
const DefaultTracePoints = 4096

// TracePoint is one sample of a live-state-over-time trace.
type TracePoint struct {
	Cycle int64 `json:"cycle"`
	Live  int64 `json:"live"`
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
}

// DeadlockSpace reports one starved tag space at deadlock time.
type DeadlockSpace struct {
	Block   string `json:"block"`
	Kind    string `json:"kind"` // "root", "loop", or "func"
	Tags    int    `json:"tags"` // tag budget (0 = unbounded)
	InUse   int    `json:"in_use"`
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
	var total float64
	for v, c := range hist {
		xs = append(xs, v)
		total += float64(c)
	}
	sort.Ints(xs)
	if total == 0 {
		return xs, nil
	}
	acc := 0.0
	for _, x := range xs {
		acc += float64(hist[x])
		ys = append(ys, acc/total)
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
