package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/ordered"
	"repro/internal/prog"
	"repro/internal/seqdf"
	"repro/internal/trace"
	"repro/internal/vn"
)

// span is one timed call into a layer. The traced run records spans only
// around calls it makes itself; nothing inside the program is
// instrumented.
type span struct {
	name       string
	worker     int
	parent     int // index of the parent span in the same worker's list, -1 for a root
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer holds one worker's spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	worker int
	spans  []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, worker: t.worker, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.epoch) }

// timedGraphs is the harness.GraphSource the traced run hands harness.Run:
// it compiles fresh, records each compile as a compile.graph span under the
// harness.run span, and keeps the graph for the direct engine calls.
type timedGraphs struct {
	t      *tracer
	parent int
	graph  *dfg.Graph
}

func (s *timedGraphs) compiled(build func() (*dfg.Graph, error)) (*dfg.Graph, error) {
	id := s.t.begin("compile.graph", s.parent)
	g, err := build()
	s.t.end(id)
	s.graph = g
	return g, err
}

func (s *timedGraphs) Tagged(app *apps.App) (*dfg.Graph, error) {
	return s.compiled(func() (*dfg.Graph, error) {
		return compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	})
}

func (s *timedGraphs) Ordered(app *apps.App) (*dfg.Graph, error) {
	return s.compiled(func() (*dfg.Graph, error) {
		return compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
	})
}

// engineLayer names the package that simulates system.
func engineLayer(system string) string {
	switch system {
	case harness.SysTyr, harness.SysUnordered:
		return "core"
	case harness.SysOrdered:
		return "ordered"
	case harness.SysVN:
		return "vn"
	}
	return "seqdf"
}

// replayOut is what one op of the traced run adds to the per-layer totals.
type replayOut struct {
	cycles, fired    int64
	l1Access, l1Miss int64
	respBytes        int
	// harnessSelf is harness.Run's time less the compile it delegated;
	// layers is the direct image + engine + check time that should
	// account for it.
	harnessSelf, layers time.Duration
	engine              string
	// engineNS is the engine call's time; compareNS the comparison run's
	// (trace capture attached, or flat memory).
	engineNS, compareNS time.Duration
	engineFired         int64
}

// replayOp runs op o through every layer tyrd (or tyrexp) would, each
// call under a span, then repeats the simulation straight through the
// engine package, which must reproduce harness.Run's cycles exactly. A
// third run is the comparison: with tyrd's 8192-event engine trace capture
// on flat-memory workloads, or with flat memory where the workload attaches
// the cache model. Every span is a child of root, the op's request span.
func replayOp(t *tracer, root int, o op, refs map[string]int64) (replayOut, error) {
	var out replayOut
	id := t.begin("api.decode", root)
	var req api.Request
	dec := json.NewDecoder(bytes.NewReader(o.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: decode: %w", o.key, err)
	}

	id = t.begin("api.plan", root)
	plan, err := req.Plan()
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: plan: %w", o.key, err)
	}

	id = t.begin("apps.resolve", root)
	app, err := resolve(t, id, &req, plan)
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: resolve: %w", o.key, err)
	}

	cfg := plan.Cfg
	hr := t.begin("harness.run", root)
	graphs := &timedGraphs{t: t, parent: hr}
	cfg.Compiler = graphs
	rs, err := harness.Run(app, req.System, cfg)
	t.end(hr)
	if err != nil {
		return out, fmt.Errorf("%s: harness.Run: %w", o.key, err)
	}
	if err := checkCycles(refs, o.key, rs.Cycles); err != nil {
		return out, err
	}
	out.cycles, out.fired = rs.Cycles, rs.Fired

	layer := engineLayer(req.System)
	d, err := direct(t, root, layer+".run", req.System, app, graphs.graph, cfg, true, nil)
	if err != nil {
		return out, fmt.Errorf("%s: direct %s run: %w", o.key, layer, err)
	}
	if d.cycles != rs.Cycles || d.fired != rs.Fired {
		return out, fmt.Errorf("%s: direct %s run took %d cycles / %d fires, harness.Run %d / %d",
			o.key, layer, d.cycles, d.fired, rs.Cycles, rs.Fired)
	}
	out.engine, out.engineNS, out.engineFired = layer, d.engine, d.fired
	out.l1Access, out.l1Miss = d.l1Access, d.l1Miss

	out.harnessSelf = t.spans[hr].dur() - childTime(t.spans, hr)
	out.layers = d.image + d.engine + d.check

	var c directRun
	if cfg.Cache != nil {
		cfg.Cache = nil
		c, err = direct(t, root, "cache.flat", req.System, app, graphs.graph, cfg, false, nil)
	} else {
		c, err = direct(t, root, "trace.capture", req.System, app, graphs.graph, cfg, false, trace.NewRecorder(8192))
		if err == nil && c.cycles != rs.Cycles {
			err = fmt.Errorf("took %d cycles, harness.Run %d", c.cycles, rs.Cycles)
		}
	}
	if err != nil {
		return out, fmt.Errorf("%s: comparison run: %w", o.key, err)
	}
	out.compareNS = c.engine

	// tyrd's reply encoding: an indented tyr-api/v1 RunResult.
	id = t.begin("api.encode", root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(api.RunResult{Version: api.Version, Stats: rs, Checked: rs.Completed})
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: encode: %w", o.key, err)
	}
	out.respBytes = buf.Len()
	return out, nil
}

// resolve materializes the request's workload as tyrd's resolve stage
// does, timing the parse and the reference-interpreter oracle of inline
// sources as child spans.
func resolve(t *tracer, parent int, req *api.Request, plan *api.Plan) (*apps.App, error) {
	if req.Source == "" {
		return plan.ResolveApp()
	}
	id := t.begin("prog.parse", parent)
	p, err := prog.Parse(req.Source)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("prog.oracle", parent)
	app, err := apps.FromProgram("", p, req.Args)
	t.end(id)
	return app, err
}

// directRun reports one direct engine call and its timed parts.
type directRun struct {
	cycles, fired        int64
	l1Access, l1Miss     int64
	image, engine, check time.Duration
}

// direct simulates app on system by calling the engine package itself,
// with the engine configuration harness.Run derives from cfg. With layers
// set, the image build, the engine run (named name) and the output check
// each get a span; otherwise the whole call is one span named name.
func direct(t *tracer, parent int, name, system string, app *apps.App, g *dfg.Graph, cfg harness.SysConfig, layers bool, rec *trace.Recorder) (directRun, error) {
	var d directRun
	if !layers {
		whole := t.begin(name, parent)
		defer t.end(whole)
	}
	timed := func(span string, f func() error) (time.Duration, error) {
		if !layers {
			start := time.Now()
			err := f()
			return time.Since(start), err
		}
		id := t.begin(span, parent)
		err := f()
		t.end(id)
		return t.spans[id].dur(), err
	}

	var im *mem.Image
	d.image, _ = timed("apps.image", func() error { im = app.NewImage(); return nil })
	var ret int64
	var err error
	d.engine, err = timed(name, func() error {
		var hier *cache.Hierarchy
		if cfg.Cache != nil {
			h, err := cache.New(*cfg.Cache, im)
			if err != nil {
				return err
			}
			hier = h
			defer func() {
				st := hier.Stats()
				d.l1Access, d.l1Miss = st.L1.Accesses, st.L1.Misses
			}()
		}
		switch system {
		case harness.SysTyr, harness.SysUnordered:
			c := core.Config{IssueWidth: cfg.IssueWidth, Policy: core.PolicyGlobalUnlimited, Tracer: rec}
			if system == harness.SysTyr {
				c.Policy, c.TagsPerBlock = core.PolicyTyr, cfg.Tags
			}
			if hier != nil {
				c.Memory = hier
			}
			res, err := core.Run(g, im, c)
			if err == nil && !res.Completed {
				err = fmt.Errorf("did not complete: %s", res.Note)
			}
			d.cycles, d.fired, ret = res.Cycles, res.Fired, res.ResultValue
			return err
		case harness.SysOrdered:
			c := ordered.Config{IssueWidth: cfg.IssueWidth, QueueCap: cfg.QueueCap, Tracer: rec}
			if hier != nil {
				c.Memory = hier
			}
			res, err := ordered.Run(g, im, c)
			d.cycles, d.fired, ret = res.Cycles, res.Fired, res.ResultValue
			return err
		case harness.SysVN:
			c := vn.Config{Args: app.Args, Tracer: rec}
			if hier != nil {
				c.Memory = hier
			}
			res, err := vn.Run(app.Prog, im, c)
			d.cycles, d.fired, ret = res.Cycles, res.Fired, res.Ret
			return err
		case harness.SysSeqDF:
			c := seqdf.Config{Args: app.Args, IssueWidth: cfg.IssueWidth, Tracer: rec}
			if hier != nil {
				c.Memory = hier
			}
			res, err := seqdf.Run(app.Prog, im, c)
			d.cycles, d.fired, ret = res.Cycles, res.Fired, res.Ret
			return err
		}
		return fmt.Errorf("unknown system %q", system)
	})
	if err != nil {
		return d, err
	}
	d.check, err = timed("apps.check", func() error { return app.Check(im, ret) })
	return d, err
}

// childTime is the time span parent's direct children cover. Children of
// one span run one after another, so their durations add up.
func childTime(spans []span, parent int) time.Duration {
	var d time.Duration
	for _, s := range spans[parent+1:] {
		if s.parent == parent {
			d += s.dur()
		}
	}
	return d
}

// selfTimes sums each layer's self time (its spans' time not covered by
// their children) and counts its calls, over one worker's spans.
func selfTimes(spans []span, self map[string]time.Duration, calls map[string]int) {
	for _, s := range spans {
		if s.parent >= 0 {
			self[spans[s.parent].name] -= s.dur()
		}
		self[s.name] += s.dur()
		calls[s.name]++
	}
}

// writeChrome writes spans as Chrome trace-event JSON (complete events,
// one track per worker), which Perfetto and chrome://tracing open.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: s.worker})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].TS < evs[b].TS })
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
