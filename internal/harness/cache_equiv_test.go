package harness

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// TestCacheDisabledBitIdentical is the default-off guard for the memory
// hierarchy: with no cache configured, and with the cache in passthrough
// mode (full state simulation, zero timing impact), every engine must
// produce exactly the cycle counts, fire counts, live-token peaks, and
// final memory images of the pre-cache simulator on every kernel. The
// cache is a timing model only — data never flows through it — so any
// divergence here means a load or store took a different code path, not
// just a different number of cycles.
func TestCacheDisabledBitIdentical(t *testing.T) {
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, sys := range Systems {
			app, sys := app, sys
			t.Run(app.Name+"/"+sys, func(t *testing.T) {
				t.Parallel()
				var imBase, imPass *mem.Image
				base, err := Run(app, sys, SysConfig{imageSink: &imBase})
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}

				pc := cache.DefaultConfig()
				pc.Passthrough = true
				pass, err := Run(app, sys, SysConfig{Cache: &pc, imageSink: &imPass})
				if err != nil {
					t.Fatalf("passthrough run: %v", err)
				}

				if base.Cycles != pass.Cycles {
					t.Errorf("cycles diverge: %d without cache, %d with passthrough cache", base.Cycles, pass.Cycles)
				}
				if base.Fired != pass.Fired {
					t.Errorf("fired diverge: %d vs %d", base.Fired, pass.Fired)
				}
				if base.PeakLive != pass.PeakLive {
					t.Errorf("peak live diverges: %d vs %d", base.PeakLive, pass.PeakLive)
				}
				if !imBase.Equal(imPass) {
					t.Errorf("final memory images diverge:\n  %s",
						strings.Join(imBase.Diff(imPass, 8), "\n  "))
				}

				// The passthrough run still measures: counters must be
				// attached and non-trivial (every kernel touches memory).
				if pass.Cache == nil {
					t.Fatalf("passthrough run has no cache stats")
				}
				if pass.Cache.L1.Accesses == 0 {
					t.Errorf("passthrough run counted no L1 accesses")
				}
				if base.Cache != nil {
					t.Errorf("baseline run unexpectedly has cache stats")
				}
			})
		}
	}
}

// TestCacheEnabledStillCorrect: with real (non-passthrough) cache timing,
// every engine still computes the right answer — latency shaping must
// never change values. Output validation runs inside Run via app.Check.
func TestCacheEnabledStillCorrect(t *testing.T) {
	cc := cache.DefaultConfig()
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, sys := range Systems {
			app, sys := app, sys
			t.Run(app.Name+"/"+sys, func(t *testing.T) {
				t.Parallel()
				rs, err := Run(app, sys, SysConfig{Cache: &cc})
				if err != nil {
					t.Fatalf("cached run: %v", err)
				}
				if !rs.Completed {
					t.Fatalf("cached run did not complete: %s", rs.Note)
				}
				if rs.Cache == nil || rs.Cache.L1.Accesses == 0 {
					t.Fatalf("cached run has no cache stats: %+v", rs.Cache)
				}
				if rs.Cache.AMAT < 1 {
					t.Errorf("AMAT = %v, want >= 1", rs.Cache.AMAT)
				}
			})
		}
	}
}

// TestTokenSplitIndependentOfMemory: the frame/cross split classifies
// tokens by the port that produced them, so memory timing must not move
// it. Every tiny kernel on both tagged machines fires the same
// instructions under flat memory, a fixed load latency and the cache
// model, and must report the same FrameTokens and CrossTokens under each.
func TestTokenSplitIndependentOfMemory(t *testing.T) {
	cc := cache.DefaultConfig()
	memories := []struct {
		name string
		cfg  SysConfig
	}{
		{"flat", SysConfig{Tags: 8}},
		{"lat=4", SysConfig{Tags: 8, LoadLatency: 4}},
		{"cache", SysConfig{Tags: 8, Cache: &cc}},
	}
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, sys := range []string{SysUnordered, SysTyr} {
			var flat metrics.RunStats
			for i, m := range memories {
				rs, err := Run(app, sys, m.cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", app.Name, sys, m.name, err)
				}
				if i == 0 {
					flat = rs
					continue
				}
				if rs.Fired != flat.Fired || rs.FrameTokens != flat.FrameTokens || rs.CrossTokens != flat.CrossTokens {
					t.Errorf("%s/%s: %s fires %d with %d frame and %d cross tokens, flat memory %d with %d and %d",
						app.Name, sys, m.name, rs.Fired, rs.FrameTokens, rs.CrossTokens,
						flat.Fired, flat.FrameTokens, flat.CrossTokens)
				}
			}
		}
	}
}
