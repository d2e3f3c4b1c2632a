package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// The batch equivalence suite is the lockstep-batching dimension of the
// equivalence grid: every batchable combo must digest identically whether
// it runs alone (Run) or as one instance of a B-wide lockstep batch
// (RunBatch), for B in {2, 4, 8, 16}. Wall-clock and trace IDs are the
// only fields allowed to differ, and neither enters the digest.
//
// TestBatchGoldenRace additionally pins one kernel's batched grid against
// committed digests (testdata/batch_golden.json) and is part of the slice
// CI runs under the race detector. Regenerate after an intentional
// semantic change with:
//
//	TYR_UPDATE_GOLDEN=1 go test ./internal/harness -run TestBatchGoldenRace
const batchGoldenPath = "testdata/batch_golden.json"

// batchStatsDigest flattens every deterministic field of a harness run
// that does not require a tracer, plus the final memory image checksum.
func batchStatsDigest(rs metrics.RunStats, im *mem.Image) string {
	return fmt.Sprintf(
		"completed=%v deadlocked=%v cycles=%d fired=%d peaklive=%d meanlive=%v peaktags=%d ipc=%s trace=%s note=%q cache=%s image=%016x",
		rs.Completed, rs.Deadlocked, rs.Cycles, rs.Fired, rs.PeakLive, rs.MeanLive,
		rs.PeakTags, histDigest(rs.IPCHist), traceDigest(rs.Trace), rs.Note,
		cacheDigest(rs.Cache), im.Checksum())
}

// batchCombos is the batchable slice of the equivalence grid: both tagged
// systems across tag budgets and policies (a deadlocking pool included —
// deadlock is a per-instance outcome), the delayed-delivery path, and the
// ordered FIFO machine at two queue depths.
func batchCombos() []equivCombo {
	var out []equivCombo
	add := func(key, sys string, cfg SysConfig) {
		out = append(out, equivCombo{key: key, sys: sys, cfg: cfg})
	}
	add("unordered", SysUnordered, SysConfig{})
	add("unordered/global=8", SysUnordered, SysConfig{GlobalTags: 8, SkipCheck: true})
	for _, tags := range []int{2, 4, 64} {
		add(fmt.Sprintf("tyr/tags=%d", tags), SysTyr, SysConfig{Tags: tags})
	}
	add("tyr/tags=8/lat=4", SysTyr, SysConfig{Tags: 8, LoadLatency: 4})
	add("ordered", SysOrdered, SysConfig{})
	add("ordered/qcap=2", SysOrdered, SysConfig{QueueCap: 2})
	return out
}

// TestBatchEquivalence sweeps every tiny kernel through the batchable
// combo grid at B = 2, 4, 8, and 16 and demands digest equality between
// each batch instance and the serial run of the same combo. The batch is
// homogeneous per combo (B copies of one config) — the heterogeneous-mix
// case is covered at the engine level.
func TestBatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is slow; skipped with -short")
	}
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, combo := range batchCombos() {
			cfg := combo.cfg
			var imSeq *mem.Image
			cfg.imageSink = &imSeq
			rs, err := Run(app, combo.sys, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, combo.key, err)
			}
			want := batchStatsDigest(rs, imSeq)
			for _, b := range []int{2, 4, 8, 16} {
				items := make([]BatchItem, b)
				ims := make([]*mem.Image, b)
				for i := range items {
					bcfg := combo.cfg
					bcfg.imageSink = &ims[i]
					items[i] = BatchItem{App: app, System: combo.sys, Cfg: bcfg}
				}
				outs, err := RunBatch(items)
				if err != nil {
					t.Fatalf("%s/%s B=%d: %v", app.Name, combo.key, b, err)
				}
				for i, out := range outs {
					if out.Err != nil {
						t.Fatalf("%s/%s B=%d instance %d: %v", app.Name, combo.key, b, i, out.Err)
					}
					if got := batchStatsDigest(out.Stats, ims[i]); got != want {
						t.Errorf("%s/%s B=%d instance %d: digest diverged from serial\n  seq: %s\n  got: %s",
							app.Name, combo.key, b, i, want, got)
					}
				}
			}
		}
	}
}

// TestBatchMixedPoliciesCoBatch proves the cross-policy co-batching the
// sweep coalescer relies on: tyr and unordered instances share the tagged
// lowering, so one lockstep batch may mix them — and each still matches
// its serial run.
func TestBatchMixedPoliciesCoBatch(t *testing.T) {
	app := apps.Suite(apps.ScaleTiny)[0]
	mix := []struct {
		sys string
		cfg SysConfig
	}{
		{SysTyr, SysConfig{Tags: 2}},
		{SysUnordered, SysConfig{}},
		{SysTyr, SysConfig{Tags: 64}},
		{SysUnordered, SysConfig{GlobalTags: 8, SkipCheck: true}},
	}
	items := make([]BatchItem, len(mix))
	ims := make([]*mem.Image, len(mix))
	for i, m := range mix {
		cfg := m.cfg
		cfg.imageSink = &ims[i]
		items[i] = BatchItem{App: app, System: m.sys, Cfg: cfg}
	}
	outs, err := RunBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mix {
		if outs[i].Err != nil {
			t.Fatalf("instance %d (%s): %v", i, m.sys, outs[i].Err)
		}
		cfg := m.cfg
		var imSeq *mem.Image
		cfg.imageSink = &imSeq
		rs, err := Run(app, m.sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := batchStatsDigest(outs[i].Stats, ims[i]), batchStatsDigest(rs, imSeq); got != want {
			t.Errorf("instance %d (%s): diverged from serial\n  seq: %s\n  got: %s", i, m.sys, want, got)
		}
	}
}

// TestBatchRejectsMixedFamilies: tagged and ordered lowerings cannot
// share a graph, so mixing them in one batch is a top-level error.
func TestBatchRejectsMixedFamilies(t *testing.T) {
	app := apps.Suite(apps.ScaleTiny)[0]
	_, err := RunBatch([]BatchItem{
		{App: app, System: SysTyr, Cfg: SysConfig{}},
		{App: app, System: SysOrdered, Cfg: SysConfig{}},
	})
	if err == nil {
		t.Fatal("mixed-family batch: want error")
	}
}

// TestBatchGroups pins the coalescer's grouping helper: same-key items
// fill groups up to the batch width, different keys never co-batch, and
// serial-family systems always get singleton groups.
func TestBatchGroups(t *testing.T) {
	keys := []string{"a", "a", "b", "a", "a", "a", "b", "a"}
	systems := []string{SysTyr, SysTyr, SysTyr, SysTyr, SysTyr, SysTyr, SysTyr, SysTyr}
	groups := BatchGroups(keys, systems, 3)
	want := [][]int{{0, 1, 3}, {2, 6}, {4, 5, 7}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
	for i := range want {
		if fmt.Sprint(groups[i]) != fmt.Sprint(want[i]) {
			t.Errorf("group %d = %v, want %v", i, groups[i], want[i])
		}
	}
	// Serial systems never co-batch even under one key.
	groups = BatchGroups([]string{"a", "a"}, []string{SysVN, SysVN}, 4)
	if len(groups) != 2 {
		t.Errorf("vN groups = %v, want singletons", groups)
	}
	// batchSize 1 disables grouping.
	groups = BatchGroups(keys, systems, 1)
	if len(groups) != len(keys) {
		t.Errorf("B=1 groups = %v, want all singletons", groups)
	}
}

// batchGoldenGrid is the committed-golden slice: one kernel, tyr at its
// smallest and largest tag budget plus the ordered baseline, each at
// every batch width CI exercises (1 included: the serial path must match
// its own golden, so a batched divergence cannot hide behind a stale
// file).
func batchGoldenGrid(t *testing.T) map[string]string {
	t.Helper()
	app := apps.Suite(apps.ScaleTiny)[0]
	digests := make(map[string]string)
	record := func(key, sys string, cfg SysConfig, b int) {
		if b <= 1 {
			var im *mem.Image
			cfg.imageSink = &im
			rs, err := Run(app, sys, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			digests[key] = batchStatsDigest(rs, im)
			return
		}
		items := make([]BatchItem, b)
		ims := make([]*mem.Image, b)
		for i := range items {
			icfg := cfg
			icfg.imageSink = &ims[i]
			items[i] = BatchItem{App: app, System: sys, Cfg: icfg}
		}
		outs, err := RunBatch(items)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("%s instance %d: %v", key, i, out.Err)
			}
			// All instances are identical; digest instance 0 and verify
			// the rest agree so a lockstep asymmetry cannot hide.
			if i == 0 {
				digests[key] = batchStatsDigest(out.Stats, ims[0])
			} else if d := batchStatsDigest(out.Stats, ims[i]); d != digests[key] {
				t.Fatalf("%s: instance %d diverged from instance 0", key, i)
			}
		}
	}
	for _, b := range []int{1, 2, 4, 8, 16} {
		for _, tags := range []int{2, 64} {
			record(fmt.Sprintf("%s/tyr/tags=%d/batch=%d", app.Name, tags, b),
				SysTyr, SysConfig{Tags: tags}, b)
		}
		record(fmt.Sprintf("%s/ordered/batch=%d", app.Name, b), SysOrdered, SysConfig{}, b)
	}
	return digests
}

// TestBatchGoldenRace compares the batch grid against committed golden
// digests; CI runs it under -race on every PR.
func TestBatchGoldenRace(t *testing.T) {
	got := batchGoldenGrid(t)

	if os.Getenv("TYR_UPDATE_GOLDEN") != "" {
		again := batchGoldenGrid(t)
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
		if err := os.MkdirAll(filepath.Dir(batchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), batchGoldenPath)
		return
	}

	data, err := os.ReadFile(batchGoldenPath)
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
			t.Errorf("%s: digest diverged\n  golden: %s\n  got:    %s", key, w, g)
		}
	}
}
