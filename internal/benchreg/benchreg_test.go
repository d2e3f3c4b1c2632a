package benchreg

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func doc(scale string, systems ...System) *Doc {
	return &Doc{Schema: Schema, Scale: scale, Systems: systems}
}

func sys(name string, wallNS int64, cycles float64) System {
	return System{System: name, WallNS: wallNS, GmeanCycles: cycles}
}

func TestComparePass(t *testing.T) {
	old := doc("small", sys("a", 100e6, 500), sys("b", 200e6, 900))
	nw := doc("small", sys("a", 50e6, 500), sys("b", 210e6, 900))
	rep, err := Compare(old, nw, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("expected pass, got regressions %v", rep.Regressions)
	}
	if len(rep.CycleChanges) != 0 {
		t.Fatalf("unexpected cycle changes %v", rep.CycleChanges)
	}
	// gmean of 0.5 and 1.05
	want := math.Sqrt(0.5 * 1.05)
	if math.Abs(rep.GmeanWallRatio-want) > 1e-9 {
		t.Fatalf("gmean ratio = %v, want %v", rep.GmeanWallRatio, want)
	}
}

func TestCompareWallRegression(t *testing.T) {
	old := doc("small", sys("a", 100e6, 500))
	nw := doc("small", sys("a", 120e6, 500))
	rep, err := Compare(old, nw, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("expected a wall-clock regression at 1.20x vs tolerance 1.15x")
	}
	// The same delta passes under a looser gate.
	rep, err = Compare(old, nw, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("expected pass at tolerance 1.25, got %v", rep.Regressions)
	}
}

func TestCompareCycleDriftIsInformational(t *testing.T) {
	old := doc("small", sys("a", 100e6, 500))
	nw := doc("small", sys("a", 90e6, 501))
	rep, err := Compare(old, nw, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("cycle drift must not fail the gate: %v", rep.Regressions)
	}
	if len(rep.CycleChanges) != 1 || !rep.Deltas[0].CycleDrift {
		t.Fatalf("cycle drift not reported: %+v", rep)
	}
}

func TestCompareMissingSystem(t *testing.T) {
	old := doc("small", sys("a", 100e6, 500), sys("b", 100e6, 500))
	nw := doc("small", sys("a", 100e6, 500), sys("c", 100e6, 500))
	rep, err := Compare(old, nw, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("dropping a baseline system must regress")
	}
	if len(rep.Deltas) != 1 {
		t.Fatalf("new-only systems should be ignored, deltas = %+v", rep.Deltas)
	}
}

func TestCompareScaleMismatch(t *testing.T) {
	if _, err := Compare(doc("small", sys("a", 1, 1)), doc("large", sys("a", 1, 1)), 1.15); err == nil {
		t.Fatal("comparing different scales must error")
	}
	if _, err := Compare(doc("small", sys("a", 1, 1)), doc("small", sys("a", 1, 1)), 0); err == nil {
		t.Fatal("non-positive tolerance must error")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	d := doc("small", sys("a", 100e6, 500))
	d.Note = "GOMAXPROCS=8 NumCPU=8"
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Systems[0] != d.Systems[0] || got.Scale != d.Scale || got.Note != d.Note {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLoadRejectsBadDocs(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"schema.json": `{"schema":"other/v1","scale":"small","systems":[{"system":"a"}]}`,
		"empty.json":  `{"schema":"tyr-bench/v1","scale":"small","systems":[]}`,
		"junk.json":   `not json`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: expected load error", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file: expected error")
	}
}

// TestLoadCommittedBaseline keeps the repo's committed benchmark artifact
// parseable by the comparator: if the schema evolves, the baseline must be
// regenerated in the same change.
func TestLoadCommittedBaseline(t *testing.T) {
	for _, name := range []string{"BENCH_pr3.json", "BENCH_pr4.json"} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			continue
		}
		if _, err := Load(path); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
