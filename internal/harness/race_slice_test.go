package harness

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/trace"
)

// readGoldenDigests loads the committed golden digest map.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	return want
}

// raceSliceKeys is the reduced equivalence slice CI runs under the race
// detector: all five engines, with the tagged machine at both its
// smallest and largest tag configuration.
var raceSliceKeys = map[string]bool{
	"vN":          true,
	"seqdf":       true,
	"ordered":     true,
	"unordered":   true,
	"tyr/tags=2":  true,
	"tyr/tags=64": true,
}

// TestStoreEquivalenceRaceSlice runs one kernel through the reduced
// combo slice, all subtests concurrently, and compares every digest
// against the committed goldens. The full differential grid under -race
// takes minutes; this slice keeps a race-enabled, golden-checked signal
// cheap enough for every PR (CI runs it with -race via -run).
func TestStoreEquivalenceRaceSlice(t *testing.T) {
	want := readGoldenDigests(t)
	app := apps.Suite(apps.ScaleTiny)[0]

	matched := 0
	for _, combo := range equivCombos() {
		if !raceSliceKeys[combo.key] {
			continue
		}
		matched++
		combo := combo
		t.Run(combo.key, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder(1 << 21)
			cfg := combo.cfg
			cfg.Tracer = rec
			var im *mem.Image
			cfg.imageSink = &im
			rs, err := Run(app, combo.sys, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, combo.key, err)
			}
			key := app.Name + "/" + combo.key
			got := runStatsDigest(rs, im, rec)
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no committed golden digest", key)
			}
			if got != w {
				t.Errorf("%s: digest diverged\n  golden: %s\n  got:    %s", key, w, got)
			}
		})
	}
	if matched != len(raceSliceKeys) {
		t.Fatalf("slice covers %d combos, expected %d: equivCombos changed, update raceSliceKeys", matched, len(raceSliceKeys))
	}
}
