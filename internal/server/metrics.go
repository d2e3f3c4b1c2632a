package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds are the upper bucket bounds (seconds) of the
// service latency histograms: 1ms to 10s, roughly log-spaced, bracketing
// everything from a tiny-kernel run to a near-deadline sweep.
var DefaultLatencyBounds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket duration histogram with Prometheus
// semantics. Observe is its only mutation API — the metricsdiscipline
// lint enforces that no other code touches its fields — and buckets are
// atomics, so observation is lock-free and never blocks exposition.
// Buckets are stored non-cumulative and accumulated at render time, which
// keeps Observe to two atomic adds.
type Histogram struct {
	bounds  []float64      // upper bounds in seconds, ascending
	buckets []atomic.Int64 // len(bounds)+1; the last bucket is +Inf
	sumNS   atomic.Int64   // total observed time in nanoseconds
}

// NewHistogram builds a histogram over ascending upper bounds (seconds).
// Nil or empty bounds select DefaultLatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	// First bound >= s is the `le` bucket; past the end is +Inf.
	i := sort.SearchFloat64s(h.bounds, s)
	h.buckets[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// snapshot returns cumulative bucket counts (one per bound plus +Inf),
// the total count, and the observed sum in seconds. Each atomic is loaded
// once, so the cumulative invariant holds even under concurrent Observe.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.buckets))
	for i := range h.buckets {
		count += h.buckets[i].Load()
		cum[i] = count
	}
	return cum, count, float64(h.sumNS.Load()) / 1e9
}

// Metrics holds the service counters exposed at /v1/metrics in Prometheus
// text exposition format (stdlib only — counters are atomics and the
// format is a handful of `name{labels} value` lines).
type Metrics struct {
	start time.Time

	mu        sync.Mutex
	requests  map[string]*atomic.Int64 // "path|code" -> count
	runs      map[string]*atomic.Int64 // system -> completed run count
	durations map[string]*Histogram    // endpoint path -> request latency
	stages    map[string]*Histogram    // span stage -> stage latency

	queueWait *Histogram // pool queue wait (submit -> job start)

	busyTotal  atomic.Int64 // submissions rejected with 429
	activeJobs atomic.Int64 // pool jobs executing now
	queueLen   atomic.Int64 // pool jobs queued, not yet started
	cancels    atomic.Int64 // runs cut short by deadline or disconnect
	panics     atomic.Int64 // pool jobs that panicked (answered 500)
	simCycles  atomic.Int64 // total simulated cycles served
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:     time.Now(),
		requests:  make(map[string]*atomic.Int64),
		runs:      make(map[string]*atomic.Int64),
		durations: make(map[string]*Histogram),
		stages:    make(map[string]*Histogram),
		queueWait: NewHistogram(nil),
	}
}

func (m *Metrics) counter(set map[string]*atomic.Int64, key string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := set[key]
	if !ok {
		c = &atomic.Int64{}
		set[key] = c
	}
	return c
}

// ObserveRequest counts one finished HTTP request.
func (m *Metrics) ObserveRequest(path string, code int) {
	m.counter(m.requests, fmt.Sprintf("%s|%d", path, code)).Add(1)
}

// ObserveRun counts one completed simulation and its simulated cycles.
func (m *Metrics) ObserveRun(system string, cycles int64) {
	m.counter(m.runs, system).Add(1)
	m.simCycles.Add(cycles)
}

// ObserveCancel counts a run cut short by deadline or client disconnect.
func (m *Metrics) ObserveCancel() { m.cancels.Add(1) }

// ObservePanic counts a pool job whose panic was recovered and answered
// with a 500.
func (m *Metrics) ObservePanic() { m.panics.Add(1) }

// histogram returns (lazily creating) the named histogram in a labeled set.
func (m *Metrics) histogram(set map[string]*Histogram, key string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := set[key]
	if !ok {
		h = NewHistogram(nil)
		set[key] = h
	}
	return h
}

// ObserveDuration records one request's total latency under its endpoint.
func (m *Metrics) ObserveDuration(path string, d time.Duration) {
	m.histogram(m.durations, path).Observe(d)
}

// ObserveStage records the latency of one request stage (admission, queue,
// compile, resolve, run — the span names of internal/obs).
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.histogram(m.stages, stage).Observe(d)
}

// ObserveQueueWait records how long a job sat in the pool queue before a
// worker picked it up — the service-level analog of the paper's allocate
// park: admitted work parked waiting for execution capacity.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.queueWait.Observe(d)
}

// WriteTo renders the Prometheus text exposition. Label sets are emitted in
// sorted order so scrapes are deterministic.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var n int64
	p := func(format string, args ...any) error {
		c, err := fmt.Fprintf(w, format, args...)
		n += int64(c)
		return err
	}
	snapshot := func(set map[string]*atomic.Int64) ([]string, map[string]int64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		keys := make([]string, 0, len(set))
		vals := make(map[string]int64, len(set))
		for k, c := range set {
			keys = append(keys, k)
			vals[k] = c.Load()
		}
		sort.Strings(keys)
		return keys, vals
	}

	if err := p("# HELP tyrd_requests_total HTTP requests served, by path and status code.\n# TYPE tyrd_requests_total counter\n"); err != nil {
		return n, err
	}
	keys, vals := snapshot(m.requests)
	for _, k := range keys {
		path, code := k, ""
		if i := strings.LastIndex(k, "|"); i >= 0 {
			path, code = k[:i], k[i+1:]
		}
		if err := p("tyrd_requests_total{path=%q,code=%q} %d\n", path, code, vals[k]); err != nil {
			return n, err
		}
	}

	if err := p("# HELP tyrd_runs_total Completed simulations, by system.\n# TYPE tyrd_runs_total counter\n"); err != nil {
		return n, err
	}
	keys, vals = snapshot(m.runs)
	for _, k := range keys {
		if err := p("tyrd_runs_total{system=%q} %d\n", k, vals[k]); err != nil {
			return n, err
		}
	}

	// Histogram families. Buckets are rendered cumulative with `le` labels
	// ending at +Inf, sums in seconds — standard Prometheus histogram
	// exposition, hand-rolled like the counters above.
	type histSeries struct {
		inner string // label pair prepended inside the _bucket braces
		outer string // label set appended to the _sum/_count sample names
		h     *Histogram
	}
	histSnapshot := func(set map[string]*Histogram, label string) []histSeries {
		m.mu.Lock()
		keys := make([]string, 0, len(set))
		hs := make(map[string]*Histogram, len(set))
		for k, h := range set {
			keys = append(keys, k)
			hs[k] = h
		}
		m.mu.Unlock()
		sort.Strings(keys)
		out := make([]histSeries, 0, len(keys))
		for _, k := range keys {
			out = append(out, histSeries{
				inner: fmt.Sprintf("%s=%q,", label, k),
				outer: fmt.Sprintf("{%s=%q}", label, k),
				h:     hs[k],
			})
		}
		return out
	}
	hist := func(name, help string, series []histSeries) error {
		if err := p("# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
			return err
		}
		for _, s := range series {
			cum, count, sum := s.h.snapshot()
			for i, b := range s.h.bounds {
				le := strconv.FormatFloat(b, 'g', -1, 64)
				if err := p("%s_bucket{%sle=%q} %d\n", name, s.inner, le, cum[i]); err != nil {
					return err
				}
			}
			if err := p("%s_bucket{%sle=\"+Inf\"} %d\n", name, s.inner, cum[len(cum)-1]); err != nil {
				return err
			}
			if err := p("%s_sum%s %.6f\n%s_count%s %d\n", name, s.outer, sum, name, s.outer, count); err != nil {
				return err
			}
		}
		return nil
	}
	if err := hist("tyrd_request_duration_seconds", "End-to-end request latency, by endpoint path.", histSnapshot(m.durations, "path")); err != nil {
		return n, err
	}
	if err := hist("tyrd_stage_duration_seconds", "Per-stage request latency (admission, queue, compile, resolve, run).", histSnapshot(m.stages, "stage")); err != nil {
		return n, err
	}
	if err := hist("tyrd_queue_wait_seconds", "Time admitted jobs spent queued before a pool worker started them.", []histSeries{{h: m.queueWait}}); err != nil {
		return n, err
	}

	simple := []struct {
		name, help, kind string
		v                int64
	}{
		{"tyrd_busy_rejections_total", "Requests rejected with 429 because the queue was full.", "counter", m.busyTotal.Load()},
		{"tyrd_cancelled_runs_total", "Runs cut short by deadline or client disconnect.", "counter", m.cancels.Load()},
		{"tyrd_panics_total", "Pool jobs that panicked; each failed only its own request with a 500.", "counter", m.panics.Load()},
		{"tyrd_simulated_cycles_total", "Total simulated cycles served.", "counter", m.simCycles.Load()},
		{"tyrd_active_jobs", "Pool jobs executing right now.", "gauge", m.activeJobs.Load()},
		{"tyrd_queue_length", "Pool jobs queued but not yet started.", "gauge", m.queueLen.Load()},
		{"tyrd_uptime_seconds", "Seconds since the server started.", "gauge", int64(time.Since(m.start).Seconds())},
	}
	for _, s := range simple {
		if err := p("# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.kind, s.name, s.v); err != nil {
			return n, err
		}
	}
	return n, nil
}
