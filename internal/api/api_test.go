package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cancel"
	"repro/internal/compile"
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
		Exec:        &ExecSpec{Batch: 8, DeadlineMS: 5000},
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
		Shards:     -2,
		TimeoutMS:  -5,
		Cache:      &CacheSpec{L1: "sets=banana"},
	}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	want := []string{"version", "system", "scale", "issue_width", "shards", "timeout_ms", "cache"}
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

// TestTimeoutMSRetired pins the retired top-level timeout_ms on both
// endpoints: 0 is ignored, and any other value is a 400 on timeout_ms
// carrying one note that names exec.deadline_ms, whatever the exec block
// says. The exec block's deadline is the plan's.
func TestTimeoutMSRetired(t *testing.T) {
	validate := map[string]func(body string) error{
		"/v1/run": func(body string) error {
			r := decodeDmv(t, body)
			return r.Validate()
		},
		"/v1/sweep": func(body string) error {
			var r SweepRequest
			if err := json.Unmarshal([]byte(`{"scale":"tiny",`+body+`}`), &r); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			return r.Validate()
		},
	}
	for ep, v := range validate {
		if err := v(`"timeout_ms":0,"exec":{"deadline_ms":100}`); err != nil {
			t.Errorf("%s: timeout_ms 0 must be ignored: %v", ep, err)
		}
		for _, body := range []string{`"timeout_ms":100`, `"timeout_ms":100,"exec":{"deadline_ms":100}`} {
			var ve *ValidationError
			if err := v(body); !errors.As(err, &ve) {
				t.Errorf("%s %s: err = %v, want *ValidationError", ep, body, err)
				continue
			}
			if len(ve.Fields) != 1 || ve.Fields[0].Field != "timeout_ms" {
				t.Errorf("%s %s: want a single timeout_ms error, got %v", ep, body, ve)
			}
			if len(ve.Notes) != 1 || !strings.Contains(ve.Notes[0], "exec.deadline_ms") {
				t.Errorf("%s %s: notes %q, want one naming exec.deadline_ms", ep, body, ve.Notes)
			}
		}
	}
	r := decodeDmv(t, `"exec":{"deadline_ms":100}`)
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.DeadlineMS != 100 {
		t.Errorf("exec.deadline_ms did not resolve: deadline=%d", plan.DeadlineMS)
	}
}

// TestSweepExecMatchesRun checks that /v1/sweep validates its exec block
// exactly as /v1/run does: the same field errors and the same notes.
func TestSweepExecMatchesRun(t *testing.T) {
	for _, exec := range []string{
		`{"deadline_ms":50}`,
		`{"shards":1,"batch":1}`,
		`{"shards":2}`,
		`{"batch":4,"deadline_ms":-1}`,
		`{"shards":3,"batch":-2}`,
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

// TestShardsRetired pins the answer old clients get now that sharded
// execution is gone: both spellings still decode, 0 or 1 stays valid, a
// count above 1 is a field error carrying the migration note, and a
// negative count still fails the >= 0 check.
func TestShardsRetired(t *testing.T) {
	for _, body := range []string{`"exec":{"shards":1}`, `"exec":{"shards":0}`, `"shards":0`, `"shards":1`} {
		r := decodeDmv(t, body)
		if _, err := r.Plan(); err != nil {
			t.Errorf("%s: one goroutine must stay valid: %v", body, err)
		}
	}
	for _, tc := range []struct{ body, field, msg string }{
		{`"exec":{"shards":2}`, "exec.shards", "removed"},
		{`"shards":2`, "shards", "removed"},
		{`"exec":{"shards":-1}`, "exec.shards", ">= 0"},
		{`"shards":-3`, "shards", ">= 0"},
	} {
		r := decodeDmv(t, tc.body)
		var ve *ValidationError
		if err := r.Validate(); !errors.As(err, &ve) {
			t.Fatalf("%s: err = %v, want *ValidationError", tc.body, err)
		}
		if len(ve.Fields) != 1 || ve.Fields[0].Field != tc.field || !strings.Contains(ve.Fields[0].Message, tc.msg) {
			t.Errorf("%s: want a single %s error mentioning %q, got %v", tc.body, tc.field, tc.msg, ve)
		}
		wantNote := tc.msg == "removed"
		if gotNote := len(ve.Notes) == 1 && ve.Notes[0] == shardsRemovedNote; gotNote != wantNote {
			t.Errorf("%s: migration note present = %v, want %v (notes %q)", tc.body, gotNote, wantNote, ve.Notes)
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

// TestBatchRetired pins the answer old clients get now that lockstep
// batching is gone: exec.batch still decodes, 0 or 1 plans cleanly, a
// width above 1 is a field error carrying the batch migration note, a
// negative width still fails the >= 0 check, and a request tripping both
// retired knobs gets both errors with each note once.
func TestBatchRetired(t *testing.T) {
	for _, body := range []string{`"exec":{"batch":0}`, `"exec":{"batch":1}`} {
		r := decodeDmv(t, body)
		if _, err := r.Plan(); err != nil {
			t.Errorf("%s: one solo run must stay valid: %v", body, err)
		}
	}
	for _, tc := range []struct {
		body   string
		fields []string // every field error, in order
		msg    string   // in the exec.batch field error
		notes  []string
	}{
		{`"exec":{"batch":4}`, []string{"exec.batch"}, "lockstep batching was removed", []string{batchRemovedNote}},
		{`"exec":{"batch":-1}`, []string{"exec.batch"}, ">= 0", nil},
		{`"shards":3,"exec":{"shards":2,"batch":16}`,
			[]string{"shards", "exec.shards", "exec.batch"}, "removed",
			[]string{shardsRemovedNote, batchRemovedNote}},
	} {
		r := decodeDmv(t, tc.body)
		var ve *ValidationError
		if err := r.Validate(); !errors.As(err, &ve) {
			t.Fatalf("%s: err = %v, want *ValidationError", tc.body, err)
		}
		var fields []string
		for _, f := range ve.Fields {
			fields = append(fields, f.Field)
			if f.Field == "exec.batch" && !strings.Contains(f.Message, tc.msg) {
				t.Errorf("%s: exec.batch error %q does not mention %q", tc.body, f.Message, tc.msg)
			}
		}
		if !reflect.DeepEqual(fields, tc.fields) {
			t.Errorf("%s: field errors on %q, want %q", tc.body, fields, tc.fields)
		}
		if !reflect.DeepEqual(ve.Notes, tc.notes) {
			t.Errorf("%s: notes %q, want %q", tc.body, ve.Notes, tc.notes)
		}
	}
}

// TestCellRangeRetired pins the answer old clients get now that the fleet
// is gone: cell_start and cell_count still decode, 0 validates, a value
// above 0 is a field error carrying the fleet migration note (once,
// however many fields tripped it), and a negative value still fails the
// >= 0 check.
func TestCellRangeRetired(t *testing.T) {
	decode := func(body string) SweepRequest {
		t.Helper()
		var r SweepRequest
		if err := json.Unmarshal([]byte(`{"scale":"tiny",`+body+`}`), &r); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return r
	}
	for _, body := range []string{`"cell_start":0`, `"cell_count":0`, `"cell_start":0,"cell_count":0`} {
		r := decode(body)
		if err := r.Validate(); err != nil {
			t.Errorf("%s: zero must stay valid: %v", body, err)
		}
	}
	for _, tc := range []struct {
		body   string
		fields []string
		msg    string
	}{
		{`"cell_start":1`, []string{"cell_start"}, "removed"},
		{`"cell_count":9`, []string{"cell_count"}, "removed"},
		{`"cell_start":1,"cell_count":9223372036854775807`, []string{"cell_start", "cell_count"}, "removed"},
		{`"cell_start":-1`, []string{"cell_start"}, ">= 0"},
		{`"cell_count":-3`, []string{"cell_count"}, ">= 0"},
	} {
		r := decode(tc.body)
		var ve *ValidationError
		if err := r.Validate(); !errors.As(err, &ve) {
			t.Fatalf("%s: err = %v, want *ValidationError", tc.body, err)
		}
		var fields []string
		for _, f := range ve.Fields {
			fields = append(fields, f.Field)
			if !strings.Contains(f.Message, tc.msg) {
				t.Errorf("%s: %s error %q does not mention %q", tc.body, f.Field, f.Message, tc.msg)
			}
		}
		if !reflect.DeepEqual(fields, tc.fields) {
			t.Errorf("%s: field errors on %v, want %v", tc.body, fields, tc.fields)
		}
		wantNote := tc.msg == "removed"
		if gotNote := len(ve.Notes) == 1 && ve.Notes[0] == cellRangeRemovedNote; gotNote != wantNote {
			t.Errorf("%s: migration note present = %v, want %v (notes %q)", tc.body, gotNote, wantNote, ve.Notes)
		}
	}
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

// loopSource returns a program whose main holds n one-line loops: n+1
// concurrent blocks.
func loopSource(n int) string {
	var b strings.Builder
	b.WriteString("program \"loops\" entry main\n\nfunc main() {\n")
	for range n {
		b.WriteString("  loop carry () while 0 {}\n")
	}
	b.WriteString("  return 0\n}\n")
	return b.String()
}

// TestTagPoolCapAdmitsFullBody builds the inline source with the most
// concurrent blocks that fits tyrd's 1 MiB body: empty functions with the
// shortest free names, each called once from main (a loop costs more
// source). At the default 64 tags it must stay under MaxTagPoolWords.
func TestTagPoolCapAdmitsFullBody(t *testing.T) {
	const body = 1 << 20
	reserved := map[string]bool{"do": true, "if": true, "let": true, "mem": true, "min": true, "max": true}
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var names []string
	for _, pattern := range []string{"?", "??", "???"} {
		for _, name := range expandNames(pattern, letters) {
			if !reserved[name] {
				names = append(names, name)
			}
		}
	}
	src := func(n int) string {
		var decls, calls strings.Builder
		for i, name := range names[:n] {
			decls.WriteString("func " + name + "(){}")
			if i > 0 {
				calls.WriteByte('+')
			}
			calls.WriteString(name + "()")
		}
		return "program \"wide\" entry main " + decls.String() + "func main(){do " + calls.String() + "}"
	}
	size := func(n int) int {
		data, err := json.Marshal(Request{Source: src(n), System: "tyr"})
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	// The largest function count whose request fits the body.
	lo, hi := 0, len(names)
	for lo < hi {
		if mid := (lo + hi + 1) / 2; size(mid) <= body {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == len(names) {
		t.Fatalf("%d names fill less than the %d-byte body", lo, body)
	}
	r := Request{Source: src(lo), System: "tyr"}
	if err := r.Validate(); err != nil {
		t.Fatalf("%d-function source in a %d-byte body: %v", lo, size(lo), err)
	}
	p, err := prog.Parse(r.Source)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d functions in a %d-byte body: %d blocks, %d tags at the default 64", lo, size(lo), lo+1, (lo+1)*64)
	if got := concurrentBlocks(p); got != lo+1 || got*64 > MaxTagPoolWords {
		t.Errorf("%d functions give %d blocks (%d tags at the default 64), want %d blocks under %d tags",
			lo, got, got*64, lo+1, MaxTagPoolWords)
	}
}

// expandNames replaces each '?' in pattern with every letter, in order.
func expandNames(pattern, letters string) []string {
	i := strings.IndexByte(pattern, '?')
	if i < 0 {
		return []string{pattern}
	}
	var out []string
	for _, c := range letters {
		out = append(out, expandNames(pattern[:i]+string(c)+pattern[i+1:], letters)...)
	}
	return out
}

// TestConcurrentBlocksMatchesCompiler pins concurrentBlocks, which sizes
// the tag-pool cap at admission, to the blocks compile.Tagged builds for
// every example program and every suite kernel.
func TestConcurrentBlocksMatchesCompiler(t *testing.T) {
	paths, err := filepath.Glob("../../examples/lang/*.tyr")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	progs := map[string]*prog.Program{}
	args := map[string][]int64{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prog.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs[path] = p
		args[path] = make([]int64, len(p.EntryFunc().Params))
	}
	for _, app := range SharedSuite(apps.ScaleTiny) {
		progs[app.Name] = app.Prog
		args[app.Name] = app.Args
	}
	for name, p := range progs {
		g, err := compile.Tagged(p, compile.Options{EntryArgs: args[name]})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := concurrentBlocks(p), len(g.Blocks); got != want {
			t.Errorf("%s: concurrentBlocks = %d, compile.Tagged built %d blocks", name, got, want)
		}
	}
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
		// ceil(n / MaxMachineSize) blocks, the root and loops, each with
		// a pool of MaxMachineSize tags.
		{"tags", MaxTagPoolWords, func(n int) validator {
			return &Request{Source: loopSource((n+MaxMachineSize-1)/MaxMachineSize - 1), System: "tyr", Tags: MaxMachineSize}
		}},
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

	// The pool is the largest the request sets, a block_tags value
	// included, and only a tyr run fills pools.
	over := Request{Source: loopSource(MaxTagPoolWords / MaxMachineSize), System: "tyr", Tags: 2, BlockTags: map[string]int{"L": MaxMachineSize}}
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "tags") {
		t.Errorf("block_tags past the tag-pool cap: err = %v, want a tags field error", err)
	}
	over.System = "unordered"
	if err := over.Validate(); err != nil {
		t.Errorf("unordered run of a source past the tag-pool cap: %v", err)
	}

	// A size past int64 parses as the largest int; it must not overflow
	// the running total back under the cap.
	huge := Request{Source: strings.Replace(memSource(1, 1), "m1[1]", "m1[99999999999999999999]", 1), System: "tyr"}
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "source") {
		t.Errorf("overflowing mem declaration: err = %v, want a source field error", err)
	}
}

func TestValidationErrorMentionsEveryField(t *testing.T) {
	err := (&SweepRequest{Systems: []string{"nope"}, Apps: []string{"nope"}, TimeoutMS: -1}).Validate()
	if err == nil {
		t.Fatal("bad sweep accepted")
	}
	for _, frag := range []string{"systems", "apps", "timeout_ms"} {
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
