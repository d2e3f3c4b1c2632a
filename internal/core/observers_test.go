package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
)

// TestObserversLeaveResultUnchanged: a tracer and a sanitizer watch a run
// and must not change it. The untraced, traced and sanitized runs must
// agree on every Result field, including the per-block peaks
// (Spaces[].PeakLiveTokens), the store occupancy and the frame/cross
// split, which the golden's untraced cells do not digest. It runs every
// tiny and small kernel under tyr, unordered, local-nogate and k-bound.
func TestObserversLeaveResultUnchanged(t *testing.T) {
	scales := []apps.Scale{apps.ScaleTiny, apps.ScaleSmall}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for _, app := range apps.Suite(scale) {
			g, err := app.Tagged()
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []TagPolicy{PolicyTyr, PolicyGlobalUnlimited, PolicyLocalNoGate, PolicyKBound} {
				t.Run(scale.String()+"/"+app.Name+"/"+policy.String(), func(t *testing.T) {
					t.Parallel()
					run := func(cfg Config) Result {
						t.Helper()
						res, err := Run(g, app.NewImage(), cfg)
						// Ungated, local-nogate can free the root with work
						// outstanding, which ends in a deadlock (tiny dconv,
						// small dconv and small dmm at 64 tags). The
						// sanitizer's completion audit reports its leaks
						// first, alongside the same Result.
						var se *SanitizeError
						if err != nil && !(cfg.Sanitize && errors.As(err, &se) && (res.Completed || res.Deadlocked)) {
							t.Fatalf("%+v: %v", cfg, err)
						}
						return res
					}
					plain := run(Config{Policy: policy})
					for name, cfg := range map[string]Config{
						"traced":    {Policy: policy, Tracer: trace.NewRecorder(1024)},
						"sanitized": {Policy: policy, Sanitize: true},
					} {
						diffResults(t, name, run(cfg), plain)
					}
				})
			}
		}
	}
}

// diffResults reports each Result field on which got differs from want.
func diffResults(t *testing.T, name string, got, want Result) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s run: %s = %+v, untraced run %+v", name, gv.Type().Field(i).Name, g, w)
		}
	}
}
