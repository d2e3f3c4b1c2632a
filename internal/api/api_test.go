package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cancel"
	"repro/internal/harness"
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

// TestExecBackCompat pins the deprecated top-level timeout_ms: it still
// decodes and resolves, the exec block wins whenever both are set, and a
// conflict is a structured error carrying the deprecation note.
func TestExecBackCompat(t *testing.T) {
	var r Request
	if err := json.Unmarshal([]byte(`{"system":"tyr","app":"dmv","timeout_ms":100}`), &r); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("deprecated spelling must stay valid: %v", err)
	}
	if r.ExecDeadlineMS() != 100 {
		t.Errorf("top-level timeout_ms did not resolve: deadline=%d", r.ExecDeadlineMS())
	}

	// Agreeing values coexist; the exec block is simply authoritative.
	r.Exec = &ExecSpec{DeadlineMS: 100}
	if err := r.Validate(); err != nil {
		t.Fatalf("agreeing exec and top-level values rejected: %v", err)
	}

	// Conflicting nonzero values are a hard 400, not a silent pick.
	r.Exec = &ExecSpec{DeadlineMS: 200}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("conflicting timeout_ms: err = %v, want *ValidationError", err)
	}
	if len(ve.Fields) != 1 || ve.Fields[0].Field != "timeout_ms" {
		t.Errorf("want a single timeout_ms conflict error, got %v", ve)
	}
	// The rejection carries the migration guidance as notes.
	found := false
	for _, n := range ve.Notes {
		if strings.Contains(n, "exec.deadline_ms") {
			found = true
		}
	}
	if !found {
		t.Errorf("validation error carries no deprecation note: %v", ve.Notes)
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
		_ = r.ExecDeadlineMS()
		if err := r.Validate(); err != nil {
			return
		}
		if _, err := r.Plan(); err != nil {
			t.Errorf("valid request failed Plan: %v", err)
		}
	})
}
