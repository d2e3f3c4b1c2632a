package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The token-store equivalence suite pins the engines' observable behavior
// bit-identically to the seed (map-backed) simulators: cycles, fire
// counts, live-state statistics, IPC histograms, decimated traces, the
// final memory image, and the full trace event stream are digested per
// engine x kernel x tag configuration and compared against golden digests
// recorded before the allocation-free store rewrite. Any divergence means
// the rewrite changed semantics, not just speed.
//
// Regenerate goldens (only legitimate when intentionally changing engine
// semantics) with:
//
//	TYR_UPDATE_GOLDEN=1 go test ./internal/harness -run TestStoreEquivalenceGolden
const goldenPath = "testdata/engine_golden.json"

// fnv1a accumulates 64-bit values into an FNV-1a hash.
type fnv1a uint64

func newFNV() fnv1a { return 1469598103934665603 }

func (h *fnv1a) mix(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= 1099511628211
	}
	*h = fnv1a(x)
}

func (h *fnv1a) mixI64(v int64) { h.mix(uint64(v)) }

// eventsDigest hashes the retained trace event stream, order-sensitively.
// A run without a recorder digests as "off".
func eventsDigest(rec *trace.Recorder) string {
	if rec == nil {
		return "off"
	}
	h := newFNV()
	evs := rec.Events()
	for _, e := range evs {
		h.mix(e.Seq)
		h.mixI64(e.Cycle)
		h.mix(uint64(e.Kind))
		h.mixI64(int64(e.Port))
		h.mixI64(int64(e.Node))
		h.mixI64(int64(e.Src))
		h.mixI64(int64(e.Block))
		h.mix(e.Tag)
		h.mixI64(e.Val)
	}
	return fmt.Sprintf("n=%d dropped=%d fnv=%016x", len(evs), rec.Dropped(), uint64(h))
}

func histDigest(hist map[int]int64) string {
	keys := make([]int, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d:%d", k, hist[k]))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func traceDigest(pts []metrics.TracePoint) string {
	h := newFNV()
	for _, p := range pts {
		h.mixI64(p.Cycle)
		h.mixI64(p.Live)
	}
	return fmt.Sprintf("n=%d fnv=%016x", len(pts), uint64(h))
}

func cacheDigest(cs *metrics.CacheStats) string {
	if cs == nil {
		return "nil"
	}
	return fmt.Sprintf("l1=%d/%d/%d/%d/%d l2=%d/%d/%d/%d/%d loads=%d stores=%d amat=%v stall=%d",
		cs.L1.Accesses, cs.L1.Hits, cs.L1.Misses, cs.L1.Evictions, cs.L1.Writebacks,
		cs.L2.Accesses, cs.L2.Hits, cs.L2.Misses, cs.L2.Evictions, cs.L2.Writebacks,
		cs.Loads, cs.Stores, cs.AMAT, cs.MSHRStallCycles)
}

// runStatsDigest flattens every deterministic field of a harness run
// (WallNS excluded: it is host time, not simulated behavior).
func runStatsDigest(rs metrics.RunStats, im *mem.Image, rec *trace.Recorder) string {
	return fmt.Sprintf(
		"completed=%v deadlocked=%v cycles=%d fired=%d peaklive=%d meanlive=%v peaktags=%d ipc=%s trace=%s note=%q cache=%s image=%016x events=%s",
		rs.Completed, rs.Deadlocked, rs.Cycles, rs.Fired, rs.PeakLive, rs.MeanLive,
		rs.PeakTags, histDigest(rs.IPCHist), traceDigest(rs.Trace), rs.Note,
		cacheDigest(rs.Cache), im.Checksum(), eventsDigest(rec))
}

// coreResultDigest flattens a direct core.Run result, including the
// policy-specific fields the harness record does not carry (spaces,
// store occupancy, frame/cross classification, deadlock detail).
func coreResultDigest(res core.Result, im *mem.Image, rec *trace.Recorder) string {
	var spaces []string
	for _, s := range res.Spaces {
		spaces = append(spaces, fmt.Sprintf("%s:%d:%d:%d:%d", s.Block, s.Tags, s.PeakInUse, s.Allocs, s.PeakLiveTokens))
	}
	deadlock := "nil"
	if res.Deadlock != nil {
		// PendingAllocs order is an implementation detail (the seed
		// iterates a map); sort for a stable digest.
		var pend []string
		for _, p := range res.Deadlock.PendingAllocs {
			pend = append(pend, fmt.Sprintf("%d:%#x:%v:%s", p.Node, p.Tag, p.HasReady, p.Space))
		}
		sort.Strings(pend)
		deadlock = fmt.Sprintf("%q pending=[%s]", res.Deadlock.String(), strings.Join(pend, " "))
	}
	ipc := make(map[int]int64, len(res.IPCHist))
	for k, v := range res.IPCHist {
		ipc[k] = v
	}
	h := newFNV()
	for _, p := range res.Trace {
		h.mixI64(p.Cycle)
		h.mixI64(p.Live)
	}
	return fmt.Sprintf(
		"completed=%v deadlocked=%v cycles=%d fired=%d result=%d peaklive=%d meanlive=%v ipc=%s trace=n%d:%016x stride=%d peaktags=%d spaces=[%s] kbpeak=%d storepeak=%d frame=%d cross=%d note=%q deadlock=%s image=%016x events=%s",
		res.Completed, res.Deadlocked, res.Cycles, res.Fired, res.ResultValue,
		res.PeakLive, res.MeanLive, histDigest(ipc), len(res.Trace), uint64(h),
		res.TraceStride, res.PeakTags, strings.Join(spaces, " "),
		res.KBoundPeakPerInvocation, res.PeakStorePerInstr, res.FrameTokens, res.CrossTokens,
		res.Note, deadlock, im.Checksum(), eventsDigest(rec))
}

// equivCombo is one harness-level configuration of the sweep.
type equivCombo struct {
	key string
	sys string
	cfg SysConfig
}

// equivCombos enumerates the engine x tag-config grid for one app. Load
// latency and cache variants exercise the delayed-delivery (calendar
// queue) paths; the bounded-global and small-tag configs exercise
// park/wake and deadlock reporting.
func equivCombos() []equivCombo {
	var out []equivCombo
	add := func(key, sys string, cfg SysConfig) {
		out = append(out, equivCombo{key: key, sys: sys, cfg: cfg})
	}
	add("vN", SysVN, SysConfig{})
	add("seqdf", SysSeqDF, SysConfig{})
	add("ordered", SysOrdered, SysConfig{})
	add("ordered/lat=4", SysOrdered, SysConfig{LoadLatency: 4})
	add("unordered", SysUnordered, SysConfig{})
	add("unordered/global=8", SysUnordered, SysConfig{GlobalTags: 8, SkipCheck: true})
	for _, tags := range []int{2, 4, 8, 64} {
		add(fmt.Sprintf("tyr/tags=%d", tags), SysTyr, SysConfig{Tags: tags})
	}
	add("tyr/tags=8/lat=4", SysTyr, SysConfig{Tags: 8, LoadLatency: 4})
	cc := cache.DefaultConfig()
	add("tyr/tags=8/cache", SysTyr, SysConfig{Tags: 8, Cache: &cc})
	return out
}

// corePolicies enumerates the direct-core policy configurations not
// reachable through the harness (the Sec. VIII ablation machines).
func corePolicies() []struct {
	key string
	cfg core.Config
} {
	return []struct {
		key string
		cfg core.Config
	}{
		{"core/local-nogate/tags=4", core.Config{Policy: core.PolicyLocalNoGate, TagsPerBlock: 4}},
		{"core/kbound/tags=4", core.Config{Policy: core.PolicyKBound, TagsPerBlock: 4}},
		{"core/kbound/tags=2", core.Config{Policy: core.PolicyKBound, TagsPerBlock: 2}},
		{"core/tyr/tags=2/width=4", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 2, IssueWidth: 4}},
	}
}

// computeDigests runs the whole grid and returns key -> digest.
func computeDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := make(map[string]string)
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, combo := range equivCombos() {
			rec := trace.NewRecorder(1 << 21)
			cfg := combo.cfg
			cfg.Tracer = rec
			var im *mem.Image
			cfg.imageSink = &im
			rs, err := Run(app, combo.sys, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, combo.key, err)
			}
			digests[app.Name+"/"+combo.key] = runStatsDigest(rs, im, rec)
		}
		g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
		if err != nil {
			t.Fatalf("%s: compile: %v", app.Name, err)
		}
		for _, pc := range corePolicies() {
			rec := trace.NewRecorder(1 << 21)
			cfg := pc.cfg
			cfg.Tracer = rec
			im := app.NewImage()
			res, err := core.Run(g, im, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, pc.key, err)
			}
			digests[app.Name+"/"+pc.key] = coreResultDigest(res, im, rec)
		}
	}
	// The small suite on every system at the default machine (width 128,
	// 64 tags, flat memory) is the exact-cycles gate: any change to a
	// small/ digest is a change to simulated semantics. These cells run
	// untraced; a recorder would drop most of dconv's events and take
	// several times as long.
	for _, app := range apps.Suite(apps.ScaleSmall) {
		for _, sys := range Systems {
			var im *mem.Image
			rs, err := Run(app, sys, SysConfig{imageSink: &im})
			if err != nil {
				t.Fatalf("small/%s/%s: %v", app.Name, sys, err)
			}
			digests["small/"+app.Name+"/"+sys] = runStatsDigest(rs, im, nil)
		}
	}
	return digests
}

// TestStoreEquivalenceGolden is the differential suite: every engine x
// kernel x tag config must reproduce the seed engines' digests exactly.
func TestStoreEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is slow; skipped with -short")
	}
	got := computeDigests(t)

	if os.Getenv("TYR_UPDATE_GOLDEN") != "" {
		// Determinism check before recording: a second sweep must agree,
		// or the goldens would be flaky by construction.
		again := computeDigests(t)
		for k, v := range got {
			if again[k] != v {
				t.Fatalf("nondeterministic digest for %s:\n  %s\n  %s", k, v, again[k])
			}
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with TYR_UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("combo count changed: golden has %d, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: combo missing from sweep", key)
			continue
		}
		if g != w {
			t.Errorf("%s: digest diverged from seed engines\n  golden: %s\n  got:    %s", key, w, g)
		}
	}
}
