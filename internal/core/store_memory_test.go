package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/prog"
)

// nestedMemoryProgram is DESIGN.md §6's nested loop: an outer loop makes
// calls calls of a function whose inner loop runs trips iterations, each
// a load, a chain of chain multiply-adds on the loaded value, and a
// store. The stores carry no ordering class, so with a long load latency
// every inner iteration the machine can start waits on its load at once.
func nestedMemoryProgram(calls, trips, chain int) *prog.Program {
	var b strings.Builder
	fmt.Fprintf(&b, "program \"nestmem\" entry main\nmem a[%d]\nmem b[%d]\n", calls*trips, calls*trips)
	fmt.Fprintf(&b, "func body(o) {\n  loop \"inner\" carry (j = 0) while j < %d {\n    let y = a[o * %d + j]\n", trips, trips)
	for k := 0; k < chain; k++ {
		fmt.Fprintf(&b, "    y = y * 3 + %d\n", k+1)
	}
	fmt.Fprintf(&b, "    store b[o * %d + j] = y\n    j = j + 1\n  }\n  return 0\n}\n", trips)
	fmt.Fprintf(&b, "func main() {\n  loop \"outer\" carry (o = 0) while o < %d {\n    do body(o)\n    o = o + 1\n  }\n  return 0\n}\n", calls)
	return prog.MustParse(b.String())
}

// storeBytes counts the bytes of every store's directory (its top level
// and the pages the machine made, which are in use or back in its pool)
// and of its records, at their capacities.
func storeBytes(m *machine) (dir, records int) {
	for i := range m.stores {
		ws := &m.stores[i]
		dir += cap(ws.dir) * int(unsafe.Sizeof(ws.dir[0]))
		records += cap(ws.tags)*8 + cap(ws.need)*4 + cap(ws.flags) + cap(ws.vals)*8 + cap(ws.present)*8
	}
	return dir + m.pages.made*int(unsafe.Sizeof(wsPage{})), records
}

// TestStoreMemoryFollowsOccupancy runs the nested loop at 65,536 tags
// with a 4,000-cycle load latency, scaled to 800 calls of 50 iterations
// and a chain of 20, so the inner block holds about 33,000 tags at once,
// and checks under tyr, unordered, global-bounded and k-bound that the
// stores' directories weigh at most a quarter of the records they index.
// A one-level directory, grown on every node of a block to the highest
// index the block handed out, weighed as much as the records here under
// tyr (8.1 MB each), and 1.7 times as much on DESIGN.md §6's full-size
// loop.
func TestStoreMemoryFollowsOccupancy(t *testing.T) {
	p := nestedMemoryProgram(800, 50, 20)
	g, err := compile.Tagged(p, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Policy: PolicyTyr, TagsPerBlock: 65536},
		{Policy: PolicyGlobalUnlimited},
		{Policy: PolicyGlobalBounded, GlobalTags: 65536},
		{Policy: PolicyKBound},
	} {
		cfg.Memory, cfg.TracePoints = mem.LoadLatency(4000), -1
		m, err := newMachine(g, prog.DefaultImage(p), cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%v: did not complete: %v", cfg.Policy, res.Deadlock)
		}
		inner := 0
		for _, s := range res.Spaces {
			if s.Block == "inner" {
				inner = s.PeakInUse
			}
		}
		dir, records := storeBytes(m)
		t.Logf("%v: %d inner tags in use at the peak; directories %d B, records %d B", cfg.Policy, inner, dir, records)
		if inner < 2000 {
			t.Errorf("%v: the inner block held only %d tags at once", cfg.Policy, inner)
		}
		if 4*dir > records {
			t.Errorf("%v: directories of %d B outweigh a quarter of the %d B of records", cfg.Policy, dir, records)
		}
	}
}

// neverEnteredMachine builds a tyr machine for a program whose one loop is
// never entered.
func neverEnteredMachine(t *testing.T) *machine {
	t.Helper()
	p := prog.MustParse(`program "skip" entry main

func main() {
  loop "never" carry (i = 0, s = 0) while i < 0 {
    s = s + i
    i = i + 1
  }
  return s
}
`)
	g, err := compile.Tagged(p, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(g, prog.DefaultImage(p), Config{Policy: PolicyTyr}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStoresEmptyBeforeFirstCycle: a store takes its records on its first
// insert, so none holds one when the machine is built.
func TestStoresEmptyBeforeFirstCycle(t *testing.T) {
	m := neverEnteredMachine(t)
	for i := range m.stores {
		if n := len(m.stores[i].tags); n != 0 {
			t.Errorf("node %q holds %d records before the first cycle", m.g.Nodes[i].Label, n)
		}
	}
}

// TestUnreachedStoresHoldNoRecords: after a run, only the stores of nodes
// a token reached hold records, so the body of a loop that is never
// entered holds none.
func TestUnreachedStoresHoldNoRecords(t *testing.T) {
	m := neverEnteredMachine(t)
	res, err := m.run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.ResultValue != 0 {
		t.Fatalf("completed=%v result=%d, want a completed run returning 0", res.Completed, res.ResultValue)
	}
	unreached := 0
	for i := range m.stores {
		n := &m.g.Nodes[i]
		reached := m.storePeak[i] > 0
		if held := len(m.stores[i].tags); (held > 0) != reached {
			t.Errorf("node %q (reached %v) holds %d records", n.Label, reached, held)
		}
		if !reached && m.g.Blocks[n.Block].Name == "never" {
			unreached++
		}
	}
	if unreached == 0 {
		t.Error("a token reached every node of the loop that is never entered")
	}
}
