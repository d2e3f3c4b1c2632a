package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cancel"
)

func TestRunHonorsStopFlagOnEverySystem(t *testing.T) {
	app := apps.Find(apps.Suite(apps.ScaleTiny), "dmv")
	for _, sys := range Systems {
		f := &cancel.Flag{}
		f.Stop()
		_, err := Run(app, sys, SysConfig{Stop: f})
		if !errors.Is(err, cancel.ErrStopped) {
			t.Errorf("%s: err = %v, want cancel.ErrStopped", sys, err)
		}
	}
}

func TestRunRecordsDeadlockTelemetry(t *testing.T) {
	tel := &Telemetry{}
	_, _, err := Fig11(ExpConfig{Scale: apps.ScaleTiny, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, rs := range tel.Snapshot() {
		if rs.Deadlocked {
			found = true
			if rs.Deadlock == nil {
				t.Error("deadlocked record lacks the structured post-mortem")
			} else if rs.Deadlock.StarvedAllocs == 0 || rs.Deadlock.Summary == "" {
				t.Errorf("deadlock post-mortem incomplete: %+v", rs.Deadlock)
			}
			if rs.WallNS == 0 {
				t.Error("deadlocked record lacks wall-clock time")
			}
		}
	}
	if !found {
		t.Fatal("no deadlocked run in the telemetry stream (fig11 bounded leg missing)")
	}
}

// TestRunCellsNamesFailedCell checks the experiments' one runner: the
// records come back, and go to telemetry, in cell order; a cell with an
// unknown system fails the experiment with an error naming the
// experiment, the app and the system, and records nothing.
func TestRunCellsNamesFailedCell(t *testing.T) {
	suite := apps.Suite(apps.ScaleTiny)
	dmv, smv := apps.Find(suite, "dmv"), apps.Find(suite, "smv")
	tel := &Telemetry{}
	cfg := SysConfig{Telemetry: tel}
	cells := []cell{{smv, SysTyr, cfg}, {dmv, SysVN, cfg}, {dmv, SysOrdered, cfg}, {smv, SysSeqDF, cfg}}
	runs, err := runCells("cells", cells)
	if err != nil {
		t.Fatal(err)
	}
	recorded := tel.Snapshot()
	if len(runs) != len(cells) || len(recorded) != len(cells) {
		t.Fatalf("got %d runs and %d records for %d cells", len(runs), len(recorded), len(cells))
	}
	for i, c := range cells {
		if runs[i].App != c.app.Name || runs[i].System != c.sys {
			t.Errorf("run %d is %s on %s, want %s on %s", i, runs[i].App, runs[i].System, c.app.Name, c.sys)
		}
		if recorded[i].App != c.app.Name || recorded[i].System != c.sys {
			t.Errorf("record %d is %s on %s, want %s on %s", i, recorded[i].App, recorded[i].System, c.app.Name, c.sys)
		}
	}

	tel = &Telemetry{}
	cfg = SysConfig{Telemetry: tel}
	_, err = runCells("fig0", []cell{{dmv, SysTyr, cfg}, {smv, "quantum", cfg}, {dmv, SysVN, cfg}})
	if err == nil {
		t.Fatal("a cell with an unknown system did not fail the experiment")
	}
	for _, want := range []string{"fig0", "smv", "quantum"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if n := len(tel.Snapshot()); n != 0 {
		t.Errorf("a failed experiment recorded %d runs", n)
	}
}
