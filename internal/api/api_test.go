package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cancel"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/prog"
)

const testSource = `program "sumloop" entry main

func main() {
  loop "L" carry (i = 0, s = 0) while i < 20 {
    s = s + i
    i = i + 1
  }
  return s
}
`

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		Version:     Version,
		App:         "dmv",
		Scale:       "tiny",
		System:      "tyr",
		IssueWidth:  64,
		Tags:        8,
		BlockTags:   map[string]int{"outer": 2},
		QueueCap:    4,
		LoadLatency: 3,
		Cache:       &CacheSpec{L1: "sets=16,ways=2,line=4,lat=1", MSHRs: 4, Passthrough: true},
		TracePoints: -1,
		Sanitize:    true,
		Exec:        &ExecSpec{DeadlineMS: 5000},
		MaxCycles:   1 << 20,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the request:\n in: %+v\nout: %+v", in, out)
	}
}

func TestSweepAndCompileRoundTrip(t *testing.T) {
	sw := SweepRequest{Version: Version, Scale: "tiny", Apps: []string{"dmv", "tc"},
		Systems: []string{"tyr", "vN"}, Tags: 16, Cache: &CacheSpec{Passthrough: true}}
	data, _ := json.Marshal(sw)
	var sw2 SweepRequest
	if err := json.Unmarshal(data, &sw2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, sw2) {
		t.Errorf("sweep round trip changed: %+v vs %+v", sw, sw2)
	}

	cr := CompileRequest{Source: testSource, Lowering: "ordered", Emit: "dot", Optimize: true}
	data, _ = json.Marshal(cr)
	var cr2 CompileRequest
	if err := json.Unmarshal(data, &cr2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr, cr2) {
		t.Errorf("compile round trip changed: %+v vs %+v", cr, cr2)
	}
}

func TestValidateMinimalRequest(t *testing.T) {
	r := Request{App: "dmv", System: "tyr"}
	if err := r.Validate(); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
}

func TestValidateCollectsAllFieldErrors(t *testing.T) {
	r := Request{
		Version:    "tyr-api/v999",
		System:     "riscv",
		Scale:      "huge",
		App:        "dmv",
		IssueWidth: -1,
		MaxCycles:  -2,
		Exec:       &ExecSpec{DeadlineMS: -5},
		Cache:      &CacheSpec{L1: "sets=banana"},
	}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	want := []string{"version", "system", "scale", "issue_width", "max_cycles", "exec.deadline_ms", "cache"}
	got := map[string]bool{}
	for _, f := range ve.Fields {
		got[f.Field] = true
	}
	for _, f := range want {
		if !got[f] {
			t.Errorf("missing field error for %q in %v", f, ve)
		}
	}
}

func TestValidateAppSourceExclusive(t *testing.T) {
	for _, r := range []Request{
		{System: "tyr"},
		{System: "tyr", App: "dmv", Source: testSource},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("request %+v should be rejected", r)
		}
	}
}

func TestValidateBadSource(t *testing.T) {
	r := Request{System: "tyr", Source: "this is not IR"}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	if len(ve.Fields) != 1 || ve.Fields[0].Field != "source" {
		t.Errorf("want a single source error, got %v", ve)
	}
}

func TestPlanConversion(t *testing.T) {
	r := Request{
		App: "dmv", System: "tyr",
		IssueWidth: 32, Tags: 4, GlobalTags: 8, QueueCap: 2,
		LoadLatency: 7, TracePoints: 128, SkipCheck: true, Sanitize: true,
		Exec:      &ExecSpec{DeadlineMS: 2500},
		MaxCycles: 999,
		Cache:     &CacheSpec{MemLatency: 50, MSHRs: 2},
	}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sc := plan.Cfg
	want := harness.SysConfig{
		IssueWidth: 32, Tags: 4, GlobalTags: 8, QueueCap: 2,
		LoadLatency: 7, TracePoints: 128, SkipCheck: true, Sanitize: true,
		MaxCycles: 999, Cache: sc.Cache,
	}
	if sc.Cache == nil || sc.Cache.MemLatency != 50 || sc.Cache.MSHRs != 2 {
		t.Errorf("cache spec not applied: %+v", sc.Cache)
	}
	if !reflect.DeepEqual(sc, want) {
		t.Errorf("conversion mismatch:\n got %+v\nwant %+v", sc, want)
	}
	if plan.DeadlineMS != 2500 {
		t.Errorf("exec deadline not resolved: deadline=%d", plan.DeadlineMS)
	}
}

// TestTracePointsOptIn pins the live-state trace contract: an omitted or
// non-positive trace_points plans no engine sampling (clients sending -1
// keep working), a positive one passes through up to MaxTracePoints, and
// anything larger is a structured error on trace_points.
func TestTracePointsOptIn(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, -1}, {-1, -1}, {-4096, -1}, {1, 1}, {64, 64}, {MaxTracePoints, MaxTracePoints},
	} {
		r := Request{App: "dmv", System: "tyr", TracePoints: tc.in}
		plan, err := r.Plan()
		if err != nil {
			t.Errorf("trace_points=%d rejected: %v", tc.in, err)
			continue
		}
		if plan.Cfg.TracePoints != tc.want {
			t.Errorf("trace_points=%d planned %d engine points, want %d", tc.in, plan.Cfg.TracePoints, tc.want)
		}
	}

	r := Request{App: "dmv", System: "tyr", TracePoints: MaxTracePoints + 1}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("trace_points above the cap: err = %v, want *ValidationError", err)
	}
	if len(ve.Fields) != 1 || ve.Fields[0].Field != "trace_points" {
		t.Errorf("want a single trace_points error, got %v", ve)
	}
}

// TestSweepExecMatchesRun checks that /v1/sweep validates its exec block
// exactly as /v1/run does: the same field errors.
func TestSweepExecMatchesRun(t *testing.T) {
	for _, exec := range []string{
		`{}`,
		`{"deadline_ms":50}`,
		`{"deadline_ms":-1}`,
	} {
		var sweep SweepRequest
		if err := json.Unmarshal([]byte(`{"scale":"tiny","exec":`+exec+`}`), &sweep); err != nil {
			t.Fatal(err)
		}
		run := decodeDmv(t, `"exec":`+exec)
		runErr, sweepErr := run.Validate(), sweep.Validate()
		if (runErr == nil) != (sweepErr == nil) {
			t.Errorf("exec %s: /v1/run says %v, /v1/sweep says %v", exec, runErr, sweepErr)
			continue
		}
		if runErr == nil {
			continue
		}
		var rve, sve *ValidationError
		if !errors.As(runErr, &rve) || !errors.As(sweepErr, &sve) {
			t.Fatalf("exec %s: want *ValidationError, got %v and %v", exec, runErr, sweepErr)
		}
		if !reflect.DeepEqual(rve, sve) {
			t.Errorf("exec %s: /v1/run %+v, /v1/sweep %+v", exec, rve, sve)
		}
	}
}

// decodeDmv decodes a tyr/dmv request carrying the extra JSON members in
// body.
func decodeDmv(t *testing.T, body string) Request {
	t.Helper()
	var r Request
	if err := json.Unmarshal([]byte(`{"system":"tyr","app":"dmv",`+body+`}`), &r); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return r
}

func TestResolveAppSuiteKernel(t *testing.T) {
	r := Request{App: "tc", Scale: "tiny", System: "vN"}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.ResolveApp()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "tc" {
		t.Errorf("resolved %q, want tc", app.Name)
	}
}

func TestResolveAppInlineSourceRunsEndToEnd(t *testing.T) {
	r := Request{Source: testSource, System: "tyr", Tags: 4}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.ResolveApp()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := harness.Run(app, r.System, plan.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Completed {
		t.Error("inline source run did not complete")
	}
}

// TestPlanParsesSourceOnce pins that resolving a plan reuses the program
// its validation parsed, and that optimizing it leaves that program as it
// was.
func TestPlanParsesSourceOnce(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		r := Request{Source: testSource, System: "vN", Optimize: optimize}
		plan, err := r.Plan()
		if err != nil {
			t.Fatal(err)
		}
		parsed := prog.Format(plan.src)
		a, err := plan.ResolveApp()
		if err != nil {
			t.Fatal(err)
		}
		b, err := plan.ResolveApp()
		if err != nil {
			t.Fatal(err)
		}
		if reused := a.Prog == plan.src && b.Prog == plan.src; reused == optimize {
			t.Errorf("optimize=%v: resolved programs %p and %p, parsed %p", optimize, a.Prog, b.Prog, plan.src)
		}
		if got := prog.Format(plan.src); got != parsed {
			t.Errorf("optimize=%v: resolving changed the parsed source:\n%s", optimize, got)
		}
	}
}

// TestCompileValidateParsesSourceOnce: CompileRequest.Validate keeps the
// program it parsed, which /v1/compile compiles instead of parsing the
// source again; optimizing compiles a copy and leaves it as parsed. A
// source that fails to parse is a field error on source, and a failed
// validation keeps no program.
func TestCompileValidateParsesSourceOnce(t *testing.T) {
	want, err := prog.Parse(testSource)
	if err != nil {
		t.Fatal(err)
	}
	r := CompileRequest{Source: testSource, Optimize: true}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	p := r.Program()
	if p == nil || r.Program() != p {
		t.Fatalf("Validate kept %p, then %p", p, r.Program())
	}
	parsed := prog.Format(p)
	if parsed != prog.Format(want) {
		t.Errorf("kept program differs from the source:\n%s", parsed)
	}
	prog.Optimize(p)
	if got := prog.Format(r.Program()); got != parsed {
		t.Errorf("optimizing changed the parsed source:\n%s", got)
	}

	for _, bad := range []CompileRequest{
		{Source: "nope"},
		{Source: testSource, Emit: "pdf"},
	} {
		var ve *ValidationError
		if err := bad.Validate(); !errors.As(err, &ve) {
			t.Fatalf("%+v: err = %v, want a ValidationError", bad, err)
		}
		if bad.Program() != nil {
			t.Errorf("%+v: a failed validation kept a program", bad)
		}
	}
	bad := CompileRequest{Source: "nope"}
	var ve *ValidationError
	if err := bad.Validate(); !errors.As(err, &ve) || len(ve.Fields) != 1 || ve.Fields[0].Field != "source" {
		t.Errorf("unparsable source: err = %v, want one field error on source", err)
	}
}

// TestResolveAppBound pins the service-side contract: a stopped flag
// cancels the inline-source oracle run (the error wraps cancel.ErrStopped),
// and maxSteps bounds its dynamic instructions. Suite kernels ignore both.
func TestResolveAppBound(t *testing.T) {
	src := Request{Source: testSource, System: "tyr"}
	srcPlan, err := src.Plan()
	if err != nil {
		t.Fatal(err)
	}

	stopped := &cancel.Flag{}
	stopped.Stop()
	if _, err := srcPlan.ResolveAppBound(stopped, 0); !errors.Is(err, cancel.ErrStopped) {
		t.Errorf("stopped flag: err = %v, want cancel.ErrStopped", err)
	}

	if _, err := srcPlan.ResolveAppBound(nil, 1); err == nil ||
		!strings.Contains(err.Error(), "budget") {
		t.Errorf("maxSteps=1: err = %v, want a budget error", err)
	}

	kernel := Request{App: "tc", Scale: "tiny", System: "vN"}
	kernelPlan, err := kernel.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernelPlan.ResolveAppBound(stopped, 1); err != nil {
		t.Errorf("suite kernel with bounds: %v (the oracle is precomputed, not run)", err)
	}
}

// TestSuiteKernelsShareOneSuite pins that admission and resolve read one
// shared suite per scale: repeated requests resolve to the same *apps.App,
// and planning plus resolving a suite kernel allocates a few objects where
// building the tiny suite allocates about 1,600 (185 KB).
func TestSuiteKernelsShareOneSuite(t *testing.T) {
	resolve := func(r Request) *apps.App {
		t.Helper()
		plan, err := r.Plan()
		if err != nil {
			t.Fatal(err)
		}
		app, err := plan.ResolveAppBound(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	for _, scale := range Scales {
		r := Request{App: "tc", Scale: scale, System: "vN"}
		a, b := resolve(r), resolve(r)
		sc, _ := ParseScale(scale)
		if a != b || a != apps.Find(SharedSuite(sc), "tc") {
			t.Errorf("%s: two requests for tc resolved to different apps", scale)
		}
	}

	const maxAllocs = 8
	r := Request{App: "dmv", Scale: "tiny", System: "tyr"}
	if n := testing.AllocsPerRun(100, func() { resolve(r) }); n > maxAllocs {
		t.Errorf("Plan + ResolveAppBound of a suite kernel: %v allocs, want <= %d", n, maxAllocs)
	}
}

// memSource is a program declaring one mem region per size.
func memSource(sizes ...int) string {
	var b strings.Builder
	b.WriteString("program \"mem\" entry main\n")
	for i, n := range sizes {
		fmt.Fprintf(&b, "mem m%d[%d]\n", i, n)
	}
	b.WriteString("\nfunc main() {\n  return 0\n}\n")
	return b.String()
}

// TestAllocationCaps pins the admission caps on request-controlled
// allocations: every capped field is accepted at its cap and is a field
// error one above it.
func TestAllocationCaps(t *testing.T) {
	type validator interface{ Validate() error }
	for _, tc := range []struct {
		field string
		max   int
		req   func(n int) validator
	}{
		{"issue_width", MaxMachineSize, func(n int) validator { return &Request{App: "dmv", System: "tyr", IssueWidth: n} }},
		{"tags", MaxMachineSize, func(n int) validator { return &Request{App: "dmv", System: "tyr", Tags: n} }},
		{"block_tags", MaxMachineSize, func(n int) validator {
			return &Request{App: "dmv", System: "tyr", BlockTags: map[string]int{"outer": 2, "inner": n}}
		}},
		{"global_tags", MaxMachineSize, func(n int) validator { return &Request{App: "dmv", System: "unordered", GlobalTags: n} }},
		{"source", MaxSourceWords, func(n int) validator { return &Request{Source: memSource(n), System: "tyr"} }},
		{"source", MaxSourceWords, func(n int) validator { return &Request{Source: memSource(n/2, n-n/2, 0), System: "tyr"} }},
		{"issue_width", MaxMachineSize, func(n int) validator { return &SweepRequest{IssueWidth: n} }},
		{"tags", MaxMachineSize, func(n int) validator { return &SweepRequest{Tags: n} }},
	} {
		if err := tc.req(tc.max).Validate(); err != nil {
			t.Errorf("%s at its cap %d: %v", tc.field, tc.max, err)
		}
		err := tc.req(tc.max + 1).Validate()
		var ve *ValidationError
		if !errors.As(err, &ve) || len(ve.Fields) != 1 || ve.Fields[0].Field != tc.field {
			t.Errorf("%s at cap+1: err = %v, want a single %s field error", tc.field, err, tc.field)
		}
	}

	// A size past int64 parses as the largest int; it must not overflow
	// the running total back under the cap.
	huge := Request{Source: strings.Replace(memSource(1, 1), "m1[1]", "m1[99999999999999999999]", 1), System: "tyr"}
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "source") {
		t.Errorf("overflowing mem declaration: err = %v, want a source field error", err)
	}
}

func TestValidationErrorMentionsEveryField(t *testing.T) {
	err := (&SweepRequest{Systems: []string{"nope"}, Apps: []string{"nope"}, Exec: &ExecSpec{DeadlineMS: -1}}).Validate()
	if err == nil {
		t.Fatal("bad sweep accepted")
	}
	for _, frag := range []string{"systems", "apps", "exec.deadline_ms"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %s", err, frag)
		}
	}
}

func FuzzRequestDecodeValidate(f *testing.F) {
	f.Add(`{"system":"tyr","app":"dmv"}`)
	f.Add(`{"version":"tyr-api/v1","system":"vN","source":"program \"x\" entry main"}`)
	f.Add(`{"system":"ordered","app":"tc","scale":"tiny","cache":{"l1":"sets=8"}}`)
	f.Add(`{"system":"tyr","app":"dmv","exec":{"shards":2,"batch":4,"deadline_ms":100}}`)
	f.Add(`{"system":"tyr","app":"dmv","shards":3,"exec":{"shards":2}}`)
	f.Add(`{"system":[1,2],"app":5}`)
	f.Fuzz(func(t *testing.T, data string) {
		var r Request
		if err := json.Unmarshal([]byte(data), &r); err != nil {
			return
		}
		// Validate, the exec resolver, and Plan must never panic on any
		// decodable request; a valid request must plan cleanly.
		_ = r.Exec.Deadline()
		if err := r.Validate(); err != nil {
			return
		}
		if _, err := r.Plan(); err != nil {
			t.Errorf("valid request failed Plan: %v", err)
		}
	})
}

// TestSummarize pins the per-system sweep summary's arithmetic.
func TestSummarize(t *testing.T) {
	run := func(sys string, cycles, wallNS int64, cs *metrics.CacheStats) metrics.RunStats {
		return metrics.RunStats{System: sys, Cycles: cycles, WallNS: wallNS, Cache: cs}
	}
	cached := func(l1Acc, l1Miss, l2Acc, l2Miss int64, amat float64) *metrics.CacheStats {
		return &metrics.CacheStats{
			L1:   metrics.CacheLevelStats{Accesses: l1Acc, Misses: l1Miss},
			L2:   metrics.CacheLevelStats{Accesses: l2Acc, Misses: l2Miss},
			AMAT: amat,
		}
	}
	for _, tc := range []struct {
		name    string
		systems []string
		runs    []metrics.RunStats
		want    []SystemSummary
	}{
		{
			name:    "gmean cycles, summed wall, runs per second",
			systems: []string{"vN"},
			runs:    []metrics.RunStats{run("vN", 100, 1e9, nil), run("vN", 400, 3e9, nil)},
			want:    []SystemSummary{{System: "vN", GmeanCycles: 200, WallNS: 4e9, ReqPerSec: 0.5}},
		},
		{
			// Per-run L1 rates are 0.1 and 0.3 and L2 rates 0.5 and 0.1:
			// a mean of rates would give 0.2 and 0.3. The uncached run
			// counts for cycles and wall but not for mean_amat.
			name:    "miss rates pool counters; AMAT averages cached runs only",
			systems: []string{"tyr"},
			runs: []metrics.RunStats{
				run("tyr", 10, 1e9, cached(100, 10, 10, 5, 2)),
				run("tyr", 100, 1e9, cached(300, 90, 90, 9, 4)),
				run("tyr", 1000, 2e9, nil),
			},
			want: []SystemSummary{{System: "tyr", GmeanCycles: 100, WallNS: 4e9, ReqPerSec: 0.75,
				L1MissRate: 0.25, L2MissRate: 0.14, MeanAMAT: 3}},
		},
		{
			name:    "order of systems, not of runs",
			systems: []string{"tyr", "vN"},
			runs:    []metrics.RunStats{run("vN", 8, 1e9, nil), run("tyr", 2, 1e9, cached(10, 5, 0, 0, 7))},
			want: []SystemSummary{
				{System: "tyr", GmeanCycles: 2, WallNS: 1e9, ReqPerSec: 1, L1MissRate: 0.5, MeanAMAT: 7},
				{System: "vN", GmeanCycles: 8, WallNS: 1e9, ReqPerSec: 1},
			},
		},
		{
			name:    "a listed system without runs is omitted; an unlisted system's runs are ignored",
			systems: []string{"vN", "ordered"},
			runs:    []metrics.RunStats{run("seqdf", 5, 1e9, nil), run("vN", 9, 0, nil)},
			want:    []SystemSummary{{System: "vN", GmeanCycles: 9}},
		},
		{
			name:    "no runs",
			systems: []string{"vN"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(tc.systems, tc.runs)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d systems %+v, want %d", len(got), got, len(tc.want))
			}
			near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
			for i, w := range tc.want {
				g := got[i]
				if g.System != w.System || g.WallNS != w.WallNS ||
					!near(g.GmeanCycles, w.GmeanCycles) || !near(g.ReqPerSec, w.ReqPerSec) ||
					!near(g.L1MissRate, w.L1MissRate) || !near(g.L2MissRate, w.L2MissRate) ||
					!near(g.MeanAMAT, w.MeanAMAT) {
					t.Errorf("systems[%d] = %+v, want %+v", i, g, w)
				}
			}
		})
	}
}
