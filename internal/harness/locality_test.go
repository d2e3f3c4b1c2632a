package harness

import (
	"testing"

	"repro/internal/apps"
)

// TestClaimLocality asserts the title claim as the locality experiment
// measures it: at the default cache capacity, TYR's tight tag budget gives
// a strictly lower L1 miss rate than unlimited unordered dataflow on the
// majority of the seven kernels, and the working-set effect is monotone —
// the tight budget never averages worse than unlimited across the sweep.
func TestClaimLocality(t *testing.T) {
	d := smallData[*LocalityData](t, "locality")
	if len(d.Apps) != 7 {
		t.Fatalf("locality swept %d kernels, want 7", len(d.Apps))
	}
	if d.Wins <= len(d.Apps)/2 {
		t.Errorf("tamed parallelism won L1 miss rate on %d of %d kernels (%d ties), want a strict majority",
			d.Wins, len(d.Apps), d.Ties)
	}

	tight := d.Rows[1]
	for _, cap := range d.Capacities {
		var un, ty float64
		for _, app := range d.Apps {
			un += d.Point(app, SysUnordered, cap).L1Miss
			ty += d.Point(app, tight, cap).L1Miss
		}
		if ty > un {
			t.Errorf("at L1=%dw, %s mean miss rate %.4f exceeds unordered's %.4f",
				cap, tight, ty/float64(len(d.Apps)), un/float64(len(d.Apps)))
		}
	}

	// Larger caches can only help: per row, mean miss rate is non-increasing
	// in capacity (the working-set curve points the right way).
	for _, row := range d.Rows {
		prev := -1.0
		for i := len(d.Capacities) - 1; i >= 0; i-- {
			var sum float64
			for _, app := range d.Apps {
				sum += d.Point(app, row, d.Capacities[i]).L1Miss
			}
			if prev >= 0 && sum < prev-1e-9 {
				t.Errorf("%s: mean L1 miss rate not monotone in capacity (%.4f at %dw < %.4f at %dw)",
					row, sum, d.Capacities[i], prev, d.Capacities[i+1])
			}
			prev = sum
		}
	}
}

// TestLocalitySmoke runs the sweep at tiny scale (the CI configuration)
// and checks the weaker smoke claim plus the data's structural integrity.
func TestLocalitySmoke(t *testing.T) {
	d, _, err := Locality(ExpConfig{Scale: apps.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if d.Wins+d.Ties == 0 {
		t.Errorf("TYR's miss rate worse than unordered on every kernel even at tiny scale")
	}
	want := len(d.Apps) * len(d.Rows) * len(d.Capacities)
	if len(d.Points) != want {
		t.Fatalf("got %d points, want %d", len(d.Points), want)
	}
	for _, p := range d.Points {
		if p.L1Miss < 0 || p.L1Miss > 1 || p.L2Miss < 0 || p.L2Miss > 1 {
			t.Errorf("%s/%s@%dw: miss rates out of range: %+v", p.App, p.Row, p.L1Words, p)
		}
		if p.AMAT < 1 {
			t.Errorf("%s/%s@%dw: AMAT %.2f < 1", p.App, p.Row, p.L1Words, p.AMAT)
		}
		if p.Cycles <= 0 {
			t.Errorf("%s/%s@%dw: no cycles recorded", p.App, p.Row, p.L1Words)
		}
	}
}
