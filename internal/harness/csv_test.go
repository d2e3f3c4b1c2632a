package harness

import (
	"bytes"
	"encoding/csv"
	"os"
	"testing"

	"repro/internal/apps"
)

// TestExportCSVAllExperiments exports every experiment's data as CSV. The
// export renders the data RunExperiment returned and runs nothing: an
// attached Telemetry holds as many records after the export as after the
// report. Rows come out in a fixed order, so writing fig13 twice gives
// byte-identical files.
func TestExportCSVAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	tel := &Telemetry{}
	cfg := ExpConfig{Scale: apps.ScaleTiny, Telemetry: tel}
	for _, name := range Experiments {
		data, _, err := RunExperiment(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs := len(tel.Snapshot())
		path, err := ExportCSV(name, data, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := len(tel.Snapshot()); n != runs {
			t.Errorf("%s: telemetry went from %d to %d records during the export", name, runs, n)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: invalid CSV: %v", name, err)
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows (header + data expected)", name, len(rows))
		}
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Errorf("%s: row %d has %d columns, header has %d", name, i, len(row), len(rows[0]))
				break
			}
		}
		if name != "fig13" {
			continue
		}
		again, err := ExportCSV(name, data, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Error("fig13: two exports of the same data differ")
		}
	}
}

func TestExportCSVUnknownExperiment(t *testing.T) {
	if _, err := ExportCSV("nope", "not experiment data", t.TempDir()); err == nil {
		t.Error("unknown experiment data accepted")
	}
}
