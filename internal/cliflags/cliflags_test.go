package cliflags

import (
	"flag"
	"testing"
)

func TestCanonicalSpellingDoesNotWarn(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := RegisterMachine(fs, "tyr")
	if err := fs.Parse([]string{"-system", "seqdf", "-width", "4", "-tags", "2"}); err != nil {
		t.Fatal(err)
	}
	if m.System != "seqdf" || m.Width != 4 || m.Tags != 2 {
		t.Errorf("machine group = %+v", m)
	}
}

// TestRegisterMachineOmitsBatchShardsAndSys pins that the shared machine
// group defines only flags every tool reads: -shards and -batch are gone
// with sharded execution and lockstep batching, and the retired -sys
// spelling of -system is no longer defined.
func TestRegisterMachineOmitsBatchShardsAndSys(t *testing.T) {
	for _, def := range []string{"", "tyr"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		RegisterMachine(fs, def)
		for _, name := range []string{"batch", "shards", "sys"} {
			if fs.Lookup(name) != nil {
				t.Errorf("RegisterMachine(%q) defines -%s", def, name)
			}
		}
	}
}

func TestCacheSpec(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCache(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Spec() != nil {
		t.Error("no cache flags should mean a nil spec (flat memory)")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	c = RegisterCache(fs)
	if err := fs.Parse([]string{"-l1", "sets=8,ways=2", "-mem-lat", "40"}); err != nil {
		t.Fatal(err)
	}
	spec := c.Spec()
	if spec == nil || spec.L1 != "sets=8,ways=2" || spec.MemLatency != 40 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := spec.Config(); err != nil {
		t.Errorf("spec does not build a cache config: %v", err)
	}
}
