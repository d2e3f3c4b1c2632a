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
// group defines only flags every tool reads: -shards is gone with sharded
// execution, -batch belongs to tyrexp bench alone, and the retired -sys
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

func TestBatchList(t *testing.T) {
	var b BatchList
	if err := b.Set("1, 2,4,16"); err != nil {
		t.Fatal(err)
	}
	want := BatchList{1, 2, 4, 16}
	if len(b) != len(want) {
		t.Fatalf("sweep list = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("sweep list = %v, want %v", b, want)
		}
	}
	if b.String() != "1,2,4,16" {
		t.Errorf("String() = %q, want %q", b.String(), "1,2,4,16")
	}
	for _, bad := range []string{"0", "-1", "x", "2,,4", "2,zero"} {
		var b BatchList
		if err := b.Set(bad); err == nil {
			t.Errorf("-batch %q: expected a parse error, got %v", bad, b)
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
