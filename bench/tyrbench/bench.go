package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/harness"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	measure time.Duration
	trace   bool
	clients int
	// tyrd is the tyrd binary the serve workloads launch.
	tyrd string
	// traceOut, when set, receives the traced run's spans as Chrome
	// trace-event JSON.
	traceOut string
}

// setupRepeats is how many times a run sets up (a serve workload starts
// tyrd, the sim workload builds its suite); setup_s is the median.
const setupRepeats = 9

// result is one workload's outcome.
type result struct {
	Workload   string    `json:"workload"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	FirstError string    `json:"first_error,omitempty"`
	EndToEnd   metricSet `json:"end_to_end"`
	PerLayer   metricSet `json:"per_layer,omitempty"`

	// gapPerOp is the traced run's |harness.Run self time - direct
	// layers| per op, the absolute side of the reconciliation tolerance.
	gapPerOp time.Duration
}

// tally counts ops into the result: every one as attempted, and each with
// an error as failed, keeping the first error.
func (r *result) tally(ss []sample) {
	r.Attempted += len(ss)
	for _, s := range ss {
		if s.err != nil {
			r.Failed++
			if r.FirstError == "" {
				r.FirstError = s.err.Error()
			}
		}
	}
}

// measurement is what a measured phase leaves for the metrics.
type measurement struct {
	setup   []float64 // seconds, one per cold start or suite build
	refs    map[string]int64
	samples []sample
	// chunks are the measured phase's chunk ends in time order, and cpu0
	// the working process's CPU time when the phase began.
	chunks []chunkEnd
	cpu0   time.Duration
	// server is the /v1/metrics delta over the measured phase (serve
	// workloads only).
	server map[string]float64
}

// chunkEnd is the moment the last op of a chunk of the measured phase
// completed.
type chunkEnd struct {
	k   int           // chunk index
	at  time.Duration // since the phase began
	cpu time.Duration // the working process's CPU time then
	rss float64       // its peak RSS (MB) since the previous chunk ended
}

// run measures workload w: set-up, one warm-up that also fixes each
// template's reference cycle count, the untraced measured phase and, with
// cfg.trace, the traced replay.
func run(w workload, cfg config) (*result, error) {
	r := &result{Workload: w.name, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	measure := measureSim
	if w.serve {
		measure = measureServe
	}
	m, err := measure(w, cfg, r)
	if err != nil {
		return nil, err
	}

	st := summarize(m.samples)
	r.tally(m.samples)
	endToEndMetrics(r.EndToEnd, w, m, st)

	if cfg.trace {
		if w.serve {
			serverLayers(r.PerLayer, m.server, st)
		}
		if err := replay(w, cfg, m, r); err != nil {
			return nil, err
		}
		r.PerLayer.fill(perLayer)
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// endToEndMetrics reports each time metric as its median over the
// measured phase's chunks. Every chunk is the same whole rounds, so the
// chunks differ only in how fast the host ran them; a median over them
// reads the same whether or not the host stalled for part of the run.
func endToEndMetrics(e metricSet, w workload, m *measurement, st phaseStats) {
	n := w.chunkLen()
	var rates, cpus, rss, p50s, tails []float64
	prevAt, prevCPU := time.Duration(0), m.cpu0
	for _, c := range m.chunks {
		rates = append(rates, float64(n)/(c.at-prevAt).Seconds())
		cpus = append(cpus, float64(c.cpu-prevCPU)/1e6/float64(n))
		rss = append(rss, c.rss)
		prevAt, prevCPU = c.at, c.cpu
		lats := summarize(m.samples[c.k*n : (c.k+1)*n]).lats
		p50s = append(p50s, quantile(lats, 0.5))
		tails = append(tails, quantile(lats, w.tail))
	}
	okShare := float64(st.ok) / float64(len(m.samples))
	rate := median(rates) * okShare
	e.set("throughput_rps", rate)
	e.set("latency_p50_ms", median(p50s))
	e.set("latency_tail_ms", median(tails))
	e.set("sim_mfires_per_s", rate*float64(st.fired)/float64(st.ok)/1e6)
	e.set("cpu_ms_per_op", median(cpus))
	e.set("peak_rss_mb", median(rss))
	e.set("setup_s", median(m.setup))
}

// measureServe drives one tyrd over loopback HTTP with closed-loop
// clients.
func measureServe(w workload, cfg config, r *result) (*measurement, error) {
	m := &measurement{}
	cold := w.coldOp(cfg.seed)
	for k := 0; k < setupRepeats; k++ {
		d, s, err := coldStart(cfg.tyrd, cold)
		if err != nil {
			return nil, err
		}
		r.tally([]sample{s})
		m.setup = append(m.setup, d.Seconds())
	}

	t, err := startTyrd(cfg.tyrd)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	c := newClient(t.addr, cfg.clients)
	defer c.close()
	if err := waitReady(t, c); err != nil {
		return nil, err
	}

	do := func(_, i int) sample { return c.do(w.op(cfg.seed, i), i) }
	m.warm(w, cfg, r, do)
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	if err := m.measure(w, cfg, t.cmd.Process.Pid, do); err != nil {
		return nil, err
	}
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}
	m.server = make(map[string]float64, len(after))
	for k, v := range after {
		m.server[k] = v - before[k]
	}
	return m, nil
}

// measureSim runs the simulator library in-process, the way tyrexp does:
// harness.Run on suite kernels, from clients goroutines.
func measureSim(w workload, cfg config, r *result) (*measurement, error) {
	m := &measurement{}
	sc, err := api.ParseScale(w.scale)
	if err != nil {
		return nil, err
	}
	var suite []*apps.App
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		suite = apps.Suite(sc)
		m.setup = append(m.setup, time.Since(start).Seconds())
	}
	var sys harness.SysConfig
	if w.cache {
		cc := cache.DefaultConfig()
		sys.Cache = &cc
	}
	do := func(_, i int) sample {
		o := w.op(cfg.seed, i)
		start := time.Now()
		rs, err := harness.Run(apps.Find(suite, o.kernel), o.system, sys)
		return sample{idx: i, key: o.key, lat: time.Since(start), cycles: rs.Cycles, fired: rs.Fired, err: err}
	}
	m.warm(w, cfg, r, do)
	if err := m.measure(w, cfg, os.Getpid(), do); err != nil {
		return nil, err
	}
	return m, nil
}

// warm runs the warm-up rounds. They fix each template's reference cycle
// count; a template seen twice with different counts is a failure.
func (m *measurement) warm(w workload, cfg config, r *result, do func(worker, i int) sample) {
	ss := closedLoop(cfg.clients, 0, w.roundLen(), w.warmRounds*w.roundLen(), 0, do, nil)
	m.refs = make(map[string]int64)
	for i, s := range ss {
		if c, ok := m.refs[s.key]; ok && s.err == nil && c != s.cycles {
			ss[i].err = fmt.Errorf("%s: %d cycles, earlier warm-up run %d", s.key, s.cycles, c)
		} else if s.err == nil {
			m.refs[s.key] = s.cycles
		}
	}
	r.tally(ss)
}

// measure runs the timed phase after the warm-up, checking every op's
// cycles against its template's reference. At each chunk's end it takes
// the CPU time and the peak RSS since the previous chunk of pid, the
// process doing the work.
func (m *measurement) measure(w workload, cfg config, pid int, do func(worker, i int) sample) error {
	var err error
	if m.cpu0, err = procCPU(pid); err != nil {
		return err
	}
	if err := resetPeakRSS(pid); err != nil {
		return err
	}
	var mu sync.Mutex
	var procErr error
	chunkDone := func(k int, at time.Duration) {
		cpu, err := procCPU(pid)
		rss, err2 := procPeakRSS(pid)
		err3 := resetPeakRSS(pid)
		mu.Lock()
		defer mu.Unlock()
		if procErr == nil {
			procErr = errors.Join(err, err2, err3)
		}
		m.chunks = append(m.chunks, chunkEnd{k: k, at: at, cpu: cpu, rss: rss})
	}
	first := w.warmRounds * w.roundLen()
	m.samples = closedLoop(cfg.clients, first, w.chunkLen(), 0, cfg.measure, func(wk, i int) sample {
		s := do(wk, i)
		if s.err == nil {
			s.err = checkCycles(m.refs, s.key, s.cycles)
		}
		return s
	}, chunkDone)
	sort.Slice(m.chunks, func(a, b int) bool { return m.chunks[a].at < m.chunks[b].at })
	return procErr
}

// serverLayers derives tyrd's per-stage means (ms per request) from the
// /v1/metrics delta of the measured phase. Admission, queue, resolve and
// run are disjoint stages of one request; compile happens inside run.
func serverLayers(p metricSet, d map[string]float64, client phaseStats) {
	reqs := d[`tyrd_request_duration_seconds_count{path="/v1/run"}`]
	if reqs == 0 {
		return
	}
	stage := func(name string) float64 {
		return d[`tyrd_stage_duration_seconds_sum{stage="`+name+`"}`] * 1e3 / reqs
	}
	reqMean := d[`tyrd_request_duration_seconds_sum{path="/v1/run"}`] * 1e3 / reqs
	p.set("server.admission_ms", stage("admission"))
	p.set("server.queue_ms", stage("queue"))
	p.set("server.resolve_ms", stage("resolve"))
	p.set("server.run_ms", stage("run"))
	if n := d[`tyrd_stage_duration_seconds_count{stage="compile"}`]; n > 0 {
		p.set("server.compile_ms", d[`tyrd_stage_duration_seconds_sum{stage="compile"}`]*1e3/n)
	}
	p.set("server.unattributed_ms", reqMean-stage("admission")-stage("queue")-stage("resolve")-stage("run"))
	hits, misses := d["tyrd_graph_cache_hits_total"], d["tyrd_graph_cache_misses_total"]
	if hits+misses > 0 {
		p.set("server.graph_hit_ratio", hits/(hits+misses))
	}
	p.set("server.rejected_total", d["tyrd_busy_rejections_total"])
	var sum float64
	for _, l := range client.lats {
		sum += l
	}
	if len(client.lats) > 0 {
		p.set("client.transport_ms", sum/float64(len(client.lats))-reqMean)
	}
}

// replay is the traced run: the first replayRounds rounds of the measured
// op sequence again, in-process, on the same number of workers, with a
// span around every call into a layer.
func replay(w workload, cfg config, m *measurement, r *result) error {
	first := w.warmRounds * w.roundLen()
	n := w.replayRounds * w.roundLen()
	epoch := time.Now()
	tracers := make([]*tracer, cfg.clients)
	for i := range tracers {
		tracers[i] = &tracer{epoch: epoch, worker: i}
	}
	outs := make([]replayOut, n)
	samples := closedLoop(cfg.clients, first, w.roundLen(), n, 0, func(wk, i int) sample {
		o := w.op(cfg.seed, i)
		t := tracers[wk]
		cold := len(t.spans) == 0
		root := t.begin("request "+o.key, -1)
		out, err := replayOp(t, root, o, m.refs)
		t.end(root)
		if cold {
			// A worker's first op grows the heap inside harness.Run
			// alone; it would skew the reconciliation, not the layers.
			out.harnessSelf, out.layers = 0, 0
		}
		outs[i-first] = out
		return sample{idx: i, key: o.key, lat: t.spans[root].dur(), err: err}
	}, nil)
	traced := summarize(samples)
	r.tally(samples)

	self, calls := make(map[string]time.Duration), make(map[string]int)
	var spans []span
	for _, t := range tracers {
		selfTimes(t.spans, self, calls)
		spans = append(spans, t.spans...)
	}
	p := r.PerLayer
	for _, layer := range []string{
		"api.decode", "api.plan", "apps.resolve", "prog.parse", "prog.oracle",
		"compile.graph", "harness.run", "apps.image", "apps.check",
		"core.run", "ordered.run", "vn.run", "seqdf.run", "api.encode",
	} {
		if calls[layer] > 0 {
			p.set(layer+"_us", float64(self[layer])/1e3/float64(calls[layer]))
		}
	}

	engineNS, engineFired := make(map[string]time.Duration), make(map[string]int64)
	var cycles, fired, l1Access, l1Miss, respBytes int64
	var runNS, compareNS, harnessSelf, layers time.Duration
	reconciled := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		o := outs[s.idx-first]
		engineNS[o.engine] += o.engineNS
		engineFired[o.engine] += o.engineFired
		cycles += o.cycles
		fired += o.fired
		l1Access += o.l1Access
		l1Miss += o.l1Miss
		respBytes += int64(o.respBytes)
		runNS += o.engineNS
		compareNS += o.compareNS
		if o.harnessSelf > 0 {
			harnessSelf += o.harnessSelf
			layers += o.layers
			reconciled++
		}
	}
	for engine, ns := range engineNS {
		p.set(engine+".ns_per_fire", float64(ns)/float64(engineFired[engine]))
	}
	if w.cache {
		p.set("cache.overhead_ratio", float64(runNS)/float64(compareNS))
		p.set("cache.l1_miss_rate", float64(l1Miss)/float64(l1Access))
	} else {
		p.set("trace.capture_overhead_ratio", float64(compareNS)/float64(runNS))
	}
	// Reconciliation: harness.Run's self time against the direct layers
	// that should account for it, over all replayed ops. Single pairs are
	// too noisy to judge (a GC pause in either run moves them by a
	// quarter), the sums are not.
	gap := harnessSelf - layers
	if gap < 0 {
		gap = -gap
	}
	p.set("harness.layer_gap_ratio", float64(gap)/float64(harnessSelf))
	r.gapPerOp = gap / time.Duration(max(reconciled, 1))
	p.set("engine.cycles_total", float64(cycles))
	p.set("engine.fired_total", float64(fired))
	p.set("api.response_kb", float64(respBytes)/1024/float64(traced.ok))

	// The traced run's cost against the untraced run's, op for op: both
	// phases start at op first.
	var tracedSum, untracedSum time.Duration
	for j, s := range samples {
		if j < len(m.samples) && s.err == nil && m.samples[j].err == nil {
			tracedSum += s.lat
			untracedSum += m.samples[j].lat
		}
	}
	if untracedSum > 0 {
		p.set("bench.trace_overhead_ratio", float64(tracedSum)/float64(untracedSum))
	}

	if cfg.traceOut == "" {
		return nil
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", cfg.traceOut, err)
	}
	return f.Close()
}
