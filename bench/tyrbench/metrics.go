package main

import "math"

// metricDef declares one reported metric. BENCHMARK.json repeats these
// declarations; TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of tyrd or the simulator library sees,
// measured with tracing off. Every workload reports every one.
var endToEnd = []metricDef{
	{"throughput_rps", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"sim_mfires_per_s", "Mfires/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (the sim workload has no server; serve workloads
// attach no cache model).
var perLayer = []metricDef{
	{name: "api.decode_us", unit: "us", better: "lower"},
	{name: "api.plan_us", unit: "us", better: "lower"},
	{name: "apps.resolve_us", unit: "us", better: "lower"},
	{name: "prog.parse_us", unit: "us", better: "lower"},
	{name: "prog.oracle_us", unit: "us", better: "lower"},
	{name: "compile.graph_us", unit: "us", better: "lower"},
	{name: "harness.run_us", unit: "us", better: "lower"},
	{name: "apps.image_us", unit: "us", better: "lower"},
	{name: "apps.check_us", unit: "us", better: "lower"},
	{name: "core.run_us", unit: "us", better: "lower"},
	{name: "ordered.run_us", unit: "us", better: "lower"},
	{name: "vn.run_us", unit: "us", better: "lower"},
	{name: "seqdf.run_us", unit: "us", better: "lower"},
	{name: "core.ns_per_fire", unit: "ns", better: "lower"},
	{name: "ordered.ns_per_fire", unit: "ns", better: "lower"},
	{name: "vn.ns_per_fire", unit: "ns", better: "lower"},
	{name: "seqdf.ns_per_fire", unit: "ns", better: "lower"},
	{name: "api.encode_us", unit: "us", better: "lower"},
	{name: "api.response_kb", unit: "KB", better: "lower"},
	{name: "trace.capture_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "cache.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "cache.l1_miss_rate", unit: "ratio", better: "lower"},
	{name: "harness.layer_gap_ratio", unit: "ratio", better: "lower"},
	{name: "engine.cycles_total", unit: "count", better: "lower"},
	{name: "engine.fired_total", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "server.admission_ms", unit: "ms", better: "lower"},
	{name: "server.queue_ms", unit: "ms", better: "lower"},
	{name: "server.resolve_ms", unit: "ms", better: "lower"},
	{name: "server.compile_ms", unit: "ms", better: "lower"},
	{name: "server.run_ms", unit: "ms", better: "lower"},
	{name: "server.unattributed_ms", unit: "ms", better: "lower"},
	{name: "server.graph_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.rejected_total", unit: "count", better: "lower"},
	{name: "client.transport_ms", unit: "ms", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the values of one declaration list.
type metricSet map[string]metric

// set records a declared metric. A value JSON cannot carry (a percentile
// of no samples) reads 0; only a run whose ops all failed produces one.
func (m metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				m[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}

// fill gives every declared metric not yet set the value 0.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{Unit: d.unit}
		}
	}
}
