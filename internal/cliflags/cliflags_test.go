package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestDeprecatedAliasWarnsOnce(t *testing.T) {
	var buf strings.Builder
	old := warnOut
	warnOut = &buf
	defer func() { warnOut = old }()

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := RegisterMachine(fs, "tyr")
	if err := fs.Parse([]string{"-sys", "ordered", "-sys", "vN"}); err != nil {
		t.Fatal(err)
	}
	if m.System != "vN" {
		t.Errorf("alias did not forward: system = %q", m.System)
	}
	if n := strings.Count(buf.String(), "deprecated"); n != 1 {
		t.Errorf("warned %d times, want once:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "-sys") || !strings.Contains(buf.String(), "-system") {
		t.Errorf("warning does not name both spellings: %q", buf.String())
	}
}

func TestCanonicalSpellingDoesNotWarn(t *testing.T) {
	var buf strings.Builder
	old := warnOut
	warnOut = &buf
	defer func() { warnOut = old }()

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := RegisterMachine(fs, "tyr")
	if err := fs.Parse([]string{"-system", "seqdf", "-width", "4", "-tags", "2"}); err != nil {
		t.Fatal(err)
	}
	if m.System != "seqdf" || m.Width != 4 || m.Tags != 2 {
		t.Errorf("machine group = %+v", m)
	}
	if buf.Len() != 0 {
		t.Errorf("unexpected warning: %q", buf.String())
	}
}

// TestRegisterMachineOmitsBatchAndShards pins that the shared machine
// group defines only flags every tool reads: -shards is gone with sharded
// execution, and -batch belongs to tyrexp bench alone.
func TestRegisterMachineOmitsBatchAndShards(t *testing.T) {
	for _, def := range []string{"", "tyr"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		RegisterMachine(fs, def)
		for _, name := range []string{"batch", "shards"} {
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
