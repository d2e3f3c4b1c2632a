package harness

import (
	"strings"
	"testing"

	"repro/internal/apps"
)

func tinyCfg() ExpConfig { return ExpConfig{Scale: apps.ScaleTiny} }

func TestRunAllSystemsOneApp(t *testing.T) {
	app := apps.Find(apps.Suite(apps.ScaleTiny), "dmv")
	for _, sys := range Systems {
		rs, err := Run(app, sys, SysConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !rs.Completed {
			t.Errorf("%s did not complete", sys)
		}
		if rs.Cycles <= 0 || rs.Fired <= 0 {
			t.Errorf("%s: empty stats %+v", sys, rs)
		}
		if rs.System != sys || rs.App != "dmv" {
			t.Errorf("mislabeled stats: %+v", rs)
		}
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	app := apps.Find(apps.Suite(apps.ScaleTiny), "dmv")
	if _, err := Run(app, "quantum", SysConfig{}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	if _, _, err := RunExperiment("nonexistent", tinyCfg()); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("want unknown-experiment error, got %v", err)
	}
}

func TestAllExperimentsRender(t *testing.T) {
	for _, name := range Experiments {
		name := name
		t.Run(name, func(t *testing.T) {
			_, report, err := RunExperiment(name, tinyCfg())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(report) < 40 {
				t.Errorf("%s: suspiciously short report:\n%s", name, report)
			}
		})
	}
}
