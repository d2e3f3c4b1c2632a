package harness

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/metrics"
)

// TestLiveTraceEverySystem checks the live-state trace every machine
// reports through the harness, at caps from 1 up to the default: it keeps
// the true peak, its cycles strictly increase, it holds at most max(cap, 2)
// points (decimation never drops the final point), and it ends at the
// run's last cycle. A negative cap turns the trace off.
func TestLiveTraceEverySystem(t *testing.T) {
	cc := cache.DefaultConfig()
	variants := []struct {
		name string
		cfg  SysConfig
	}{
		{"flat", SysConfig{}},
		{"lat=4", SysConfig{LoadLatency: 4}},
		{"cache", SysConfig{Cache: &cc}},
		{"tags=2", SysConfig{Tags: 2}},
	}
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, sys := range Systems {
			for _, v := range variants {
				for _, points := range []int{1, 2, 3, 4, 7, 8, 64, 4096} {
					cfg := v.cfg
					cfg.TracePoints = points
					name := fmt.Sprintf("%s/%s/%s/points=%d", app.Name, sys, v.name, points)
					rs, err := Run(app, sys, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkLiveTrace(t, name, rs.Trace, rs.PeakLive, rs.Cycles, max(points, 2))
				}
				cfg := v.cfg
				cfg.TracePoints = -1
				rs, err := Run(app, sys, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s/off: %v", app.Name, sys, v.name, err)
				}
				if len(rs.Trace) != 0 {
					t.Errorf("%s/%s/%s: TracePoints -1 gave %d points", app.Name, sys, v.name, len(rs.Trace))
				}
			}
		}
	}
}

func checkLiveTrace(t *testing.T, name string, trace []metrics.TracePoint, peak, cycles int64, limit int) {
	t.Helper()
	if len(trace) == 0 || len(trace) > limit {
		t.Fatalf("%s: %d points, want 1 to %d", name, len(trace), limit)
	}
	var tracePeak int64
	for i, p := range trace {
		if i > 0 && p.Cycle <= trace[i-1].Cycle {
			t.Fatalf("%s: cycles not strictly increasing at point %d: %v", name, i, trace)
		}
		tracePeak = max(tracePeak, p.Live)
	}
	if tracePeak != peak {
		t.Errorf("%s: trace peak %d, PeakLive %d", name, tracePeak, peak)
	}
	if last := trace[len(trace)-1].Cycle; last != cycles {
		t.Errorf("%s: last point at cycle %d, run took %d cycles", name, last, cycles)
	}
}
