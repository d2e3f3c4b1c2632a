package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// nestedLoopProgram builds a dmv-shaped two-level loop nest: the workload
// family on which bounded global tag spaces deadlock (Fig. 11).
func nestedLoopProgram(outer, inner int64) *prog.Program {
	p := prog.NewProgram("nest", "main")
	p.AddFunc("main", nil, prog.V("total"),
		prog.ForRange("outer", "i", prog.C(0), prog.C(outer), []prog.LoopVar{prog.LV("total", prog.C(0))},
			prog.ForRange("inner", "j", prog.C(0), prog.C(inner), []prog.LoopVar{prog.LV("acc", prog.V("total"))},
				prog.Set("acc", prog.Add(prog.V("acc"), prog.V("j"))),
			),
			prog.Set("total", prog.V("acc")),
		),
	)
	return p
}

func compileNested(t *testing.T, outer, inner int64) *dfg.Graph {
	t.Helper()
	g, err := compile.Tagged(nestedLoopProgram(outer, inner), compile.Options{})
	if err != nil {
		t.Fatalf("Tagged: %v", err)
	}
	return g
}

func TestTyrCompletesWithTwoTags(t *testing.T) {
	g := compileNested(t, 10, 10)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 2, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("TYR with 2 tags did not complete: %v", res.Deadlock)
	}
	want := int64(10 * (9 * 10 / 2))
	if res.ResultValue != want {
		t.Errorf("result = %d, want %d", res.ResultValue, want)
	}
}

func TestUnorderedBoundedDeadlocks(t *testing.T) {
	// The paper's Fig. 11: naive unordered dataflow with a small global
	// tag pool allocates all tags to outer-loop work and deadlocks; the
	// input must be large enough that the pool cannot cover it.
	g := compileNested(t, 64, 64)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyGlobalBounded, GlobalTags: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("expected deadlock with 8 global tags; completed=%v cycles=%d", res.Completed, res.Cycles)
	}
	if len(res.Deadlock.PendingAllocs) == 0 {
		t.Error("deadlock report has no starved allocates")
	}
	if res.Deadlock.LiveTokens == 0 {
		t.Error("deadlock report shows no live tokens")
	}
}

func TestUnorderedBoundedCompletesWithEnoughTags(t *testing.T) {
	g := compileNested(t, 8, 8)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyGlobalBounded, GlobalTags: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("expected completion with a large pool: %v", res.Deadlock)
	}
}

func TestUnorderedUnlimitedMatchesTyrResult(t *testing.T) {
	g := compileNested(t, 12, 7)
	r1, err := Run(g, mem.NewImage(), Config{Policy: PolicyGlobalUnlimited})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ResultValue != r2.ResultValue {
		t.Errorf("results differ: unordered %d, tyr %d", r1.ResultValue, r2.ResultValue)
	}
}

func TestTyrStateBoundedByTags(t *testing.T) {
	// Theorem 2: live tokens are bounded by T*N*M. More usefully, fewer
	// tags must not increase peak state.
	g := compileNested(t, 20, 20)
	peak := make(map[int]int64)
	for _, tags := range []int{2, 8, 64} {
		res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: tags})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("tags=%d did not complete", tags)
		}
		peak[tags] = res.PeakLive
		bound := int64(tags) * int64(g.NumNodes()) * int64(g.MaxInputs())
		if res.PeakLive > bound {
			t.Errorf("tags=%d: peak %d exceeds T*N*M bound %d", tags, res.PeakLive, bound)
		}
	}
	if peak[2] > peak[64] {
		t.Errorf("peak state with 2 tags (%d) exceeds 64 tags (%d)", peak[2], peak[64])
	}
}

func TestTyrFasterThanOneWideAndBoundedByWidth(t *testing.T) {
	g := compileNested(t, 16, 16)
	wide, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 64, IssueWidth: 128})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 64, IssueWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Cycles >= narrow.Cycles {
		t.Errorf("wide (%d cycles) not faster than narrow (%d cycles)", wide.Cycles, narrow.Cycles)
	}
	if ipc := wide.IPC(); ipc > 128 {
		t.Errorf("IPC %f exceeds issue width", ipc)
	}
}

func TestPerBlockTagOverride(t *testing.T) {
	g := compileNested(t, 16, 16)
	base, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Run(g, mem.NewImage(), Config{
		Policy: PolicyTyr, TagsPerBlock: 64,
		BlockTags: map[string]int{"outer": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Completed {
		t.Fatalf("tuned run did not complete: %v", tuned.Deadlock)
	}
	if tuned.ResultValue != base.ResultValue {
		t.Errorf("results differ: %d vs %d", tuned.ResultValue, base.ResultValue)
	}
	// Restricting the outer loop must cap its tag usage.
	for _, s := range tuned.Spaces {
		if s.Block == "outer" && s.PeakInUse > 2 {
			t.Errorf("outer peak tags %d exceeds override 2", s.PeakInUse)
		}
	}
}

func TestPerBlockLiveTokens(t *testing.T) {
	g := compileNested(t, 12, 12)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	var sum int64
	for _, s := range res.Spaces {
		if s.PeakLiveTokens <= 0 {
			t.Errorf("block %q reports no live tokens", s.Block)
		}
		sum += s.PeakLiveTokens
		byName[s.Block] = s.PeakLiveTokens
	}
	// The loop nest is where the state lives, not the root (note: a
	// block's count includes its children's entry transfer points, which
	// belong to the parent's DAG, so outer can rival inner).
	if byName["inner"] <= byName["root"] || byName["outer"] <= byName["root"] {
		t.Errorf("loop blocks should dominate the root: %v", byName)
	}
	// Per-block peaks need not be simultaneous, so their sum bounds the
	// global peak from above.
	if sum < res.PeakLive {
		t.Errorf("sum of block peaks %d below global peak %d", sum, res.PeakLive)
	}
}

func TestSpaceStatsReported(t *testing.T) {
	g := compileNested(t, 4, 4)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]metrics.SpaceStats)
	for _, s := range res.Spaces {
		names[s.Block] = s
	}
	for _, want := range []string{"root", "outer", "inner"} {
		if _, ok := names[want]; !ok {
			t.Errorf("missing space stats for %q (have %v)", want, res.Spaces)
		}
	}
	if names["outer"].Allocs != 1+4 { // one entry + four backedges
		t.Errorf("outer allocs = %d, want 5", names["outer"].Allocs)
	}
	if names["inner"].Allocs != 4*(1+4) {
		t.Errorf("inner allocs = %d, want 20", names["inner"].Allocs)
	}
}

func TestConfigValidation(t *testing.T) {
	g := compileNested(t, 2, 2)
	if _, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 1}); err == nil ||
		!strings.Contains(err.Error(), "at least 2 tags") {
		t.Errorf("want tag-count error, got %v", err)
	}
	if _, err := Run(g, mem.NewImage(), Config{Policy: PolicyGlobalBounded}); err == nil ||
		!strings.Contains(err.Error(), "at least 1 tag") {
		t.Errorf("want pool-size error, got %v", err)
	}
	if _, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 4,
		BlockTags: map[string]int{"inner": 1}}); err == nil ||
		!strings.Contains(err.Error(), "at least 2 tags") {
		t.Errorf("want override error, got %v", err)
	}
}

// TestIPCCDF checks the IPC distribution of a Result (Fig. 10): the
// histogram's CDF runs in increasing IPC order and ends at 1, and on a real
// run every cycle is counted once.
func TestIPCCDF(t *testing.T) {
	r := Result{IPCHist: map[int]int64{1: 2, 4: 6, 8: 2}}
	ipcs, cum := metrics.CDF(r.IPCHist)
	if len(ipcs) != 3 || ipcs[0] != 1 || ipcs[2] != 8 {
		t.Fatalf("ipcs = %v", ipcs)
	}
	if cum[2] != 1.0 {
		t.Errorf("CDF does not end at 1: %v", cum)
	}
	if cum[0] != 0.2 {
		t.Errorf("cum[0] = %f, want 0.2", cum[0])
	}

	res, err := Run(compileNested(t, 4, 8), mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 4, IssueWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cycles int64
	for _, c := range res.IPCHist {
		cycles += c
	}
	if cycles != res.Cycles {
		t.Errorf("IPC histogram counts %d cycles, run took %d", cycles, res.Cycles)
	}
	ipcs, cum = metrics.CDF(res.IPCHist)
	if len(cum) == 0 || cum[len(cum)-1] != 1.0 || ipcs[len(ipcs)-1] > 4 {
		t.Errorf("real-run CDF: ipcs = %v, cum = %v", ipcs, cum)
	}
}

func TestTraceDecimation(t *testing.T) {
	g := compileNested(t, 32, 32)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 4, TracePoints: 64, IssueWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || len(res.Trace) > 64 {
		t.Errorf("trace length %d out of bounds", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Cycle <= res.Trace[i-1].Cycle {
			t.Fatalf("trace cycles not increasing at %d", i)
		}
	}
}

func TestTokenStoreBoundedByTags(t *testing.T) {
	// Problem #2 (implementation complexity): under TYR no static
	// instruction ever holds more waiting instances than its block's tag
	// count; under unlimited unordered dataflow the requirement grows
	// with the input.
	for _, tags := range []int{2, 8, 32} {
		g := compileNested(t, 32, 32)
		res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: tags})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakStorePerInstr > tags {
			t.Errorf("tags=%d: an instruction held %d waiting instances", tags, res.PeakStorePerInstr)
		}
	}
	small, err := Run(compileNested(t, 8, 8), mem.NewImage(), Config{Policy: PolicyGlobalUnlimited})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(compileNested(t, 64, 8), mem.NewImage(), Config{Policy: PolicyGlobalUnlimited})
	if err != nil {
		t.Fatal(err)
	}
	if large.PeakStorePerInstr <= small.PeakStorePerInstr {
		t.Errorf("unordered store requirement did not grow with input: %d -> %d",
			small.PeakStorePerInstr, large.PeakStorePerInstr)
	}
}

func TestTokenClassificationCounts(t *testing.T) {
	g := compileNested(t, 8, 8)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameTokens == 0 || res.CrossTokens == 0 {
		t.Fatalf("token classification empty: frame=%d cross=%d", res.FrameTokens, res.CrossTokens)
	}
	// Transfer-point traffic is a minority: most tokens stay inside
	// their concurrent block (the Monsoon synergy of Sec. VIII).
	if res.FrameTokens < 2*res.CrossTokens {
		t.Errorf("frame tokens (%d) should dominate cross tokens (%d)", res.FrameTokens, res.CrossTokens)
	}
}

func TestDeterminism(t *testing.T) {
	g := compileNested(t, 10, 10)
	var prev Result
	for i := 0; i < 3; i++ {
		res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 8})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (res.Cycles != prev.Cycles || res.Fired != prev.Fired || res.PeakLive != prev.PeakLive) {
			t.Fatalf("run %d differs: %+v vs %+v", i, res, prev)
		}
		prev = res
	}
}

// TestPooledStoreMemoryFollowsOccupancy runs small dconv on 65,536-tag
// budgets under every policy (k-bound at its default k) and checks that
// no store sized itself by its space: each arena holds at most twice the
// node's peak occupancy (at least wsMinCap); the machine made no more
// directory pages than its nodes' peak occupancies add up to, since a page
// in use names at least one record, or is the last page of a store that
// held one; each directory's top level covers at most twice the indices
// its space has handed out (its peak tags in use, since a list hands out
// a new index only when every one is in use); and once the run drains,
// every store keeps at most its last page and the rest are back in the
// pool. k-bound, whose invocations take an index per iteration, makes no
// more pages than unordered, whose spaces no budget bounds.
func TestPooledStoreMemoryFollowsOccupancy(t *testing.T) {
	app := apps.Dconv(28, 28, 5, 3)
	g, err := app.Tagged()
	if err != nil {
		t.Fatal(err)
	}
	made := map[TagPolicy]int{}
	for _, cfg := range []Config{
		{Policy: PolicyTyr, TagsPerBlock: 65536},
		{Policy: PolicyLocalNoGate, TagsPerBlock: 65536},
		{Policy: PolicyGlobalUnlimited},
		{Policy: PolicyGlobalBounded, GlobalTags: 65536},
		{Policy: PolicyKBound},
	} {
		im := app.NewImage()
		m, err := newMachine(g, im, cfg.withDefaults())
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
		if err := app.Check(im, res.ResultValue); err != nil {
			t.Fatal(err)
		}
		occupancy, kept := 0, 0
		for nid := range m.stores {
			ws := &m.stores[nid]
			n := &g.Nodes[nid]
			occupancy += int(m.storePeak[nid])
			if arena, limit := len(ws.tags), max(wsMinCap, 2*int(m.storePeak[nid])); arena > limit {
				t.Errorf("%v: %q: arena of %d records for a peak of %d waiting instances", cfg.Policy, n.Label, arena, m.storePeak[nid])
			}
			handed := len(m.spaces[n.Block].by)
			if limit := 2 * ((handed + wsPageSize - 1) / wsPageSize); cap(ws.dir) > limit {
				t.Errorf("%v: %q: directory of %d pages for %d indices handed out", cfg.Policy, n.Label, cap(ws.dir), handed)
			}
			if ws.len() != 0 || ws.npages > 1 {
				t.Errorf("%v: %q: %d instances and %d pages left in a drained run", cfg.Policy, n.Label, ws.len(), ws.npages)
			}
			kept += ws.npages
		}
		if m.pages.made > occupancy || kept+len(m.pages.free) != m.pages.made {
			t.Errorf("%v: %d pages made, %d kept and %d back in the pool, for nodes whose peaks add up to %d instances",
				cfg.Policy, m.pages.made, kept, len(m.pages.free), occupancy)
		}
		made[cfg.Policy] = m.pages.made
	}
	if kb, un := made[PolicyKBound], made[PolicyGlobalUnlimited]; kb > un {
		t.Errorf("kbound made %d directory pages, unordered %d", kb, un)
	}
}

// forgedTagGraph forges a token in the root block that carries tag and
// sends it to "victim", the root-block node decl declares. Block 1's
// first tag is 1<<32.
func forgedTagGraph(t *testing.T, tag uint64, decl string) *dfg.Graph {
	t.Helper()
	g, err := dfg.ParseGraph([]byte(fmt.Sprintf(`graph "forged"
block 1 loop parent=0 name="other"
node 0 forward blk=0 nin=1 label="entry"
node 1 changeTag blk=0 nin=2 const0=%d label="forge"
node 2 %s label="victim"
node 3 free blk=0 nin=1 space=0 label="root.free"
edge 0.0 -> 1.1
edge 0.0 -> 3.0
edge 1.0 -> 2.0
inject 0.0 = 1
rootfree 3
`, tag, decl)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestForeignTagFailsRun: every store indexes tags by pool index, and
// every space records which of its indices are out, so under every policy
// a token whose tag its destination cannot take fails the run with an
// error naming the node and the tag, instead of landing in another
// instance's slot or going back to a list twice. The first case sends a
// tag of another space to a join. The second forges index 7 of the root's
// pool of 8, while only the root's own tag, index 0, has gone out, and
// sends it to a free, which must not take back an index its list never
// handed out. The third frees the child's retired tag a second time
// (retiredTagGraph): the store takes it, since index 0 was handed out,
// but the space no longer has it out.
func TestForeignTagFailsRun(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *dfg.Graph
		tag  uint64
	}{
		{"another space", forgedTagGraph(t, 1<<32, "join blk=0 nin=2"), 1 << 32},
		{"an index never handed out", forgedTagGraph(t, 7, "free blk=0 nin=1 space=0"), 7},
		{"a retired tag", retiredTagGraph(t, "free blk=1 nin=1 space=1"), 1 << 32},
	} {
		for _, cfg := range []Config{
			{Policy: PolicyTyr, TagsPerBlock: 8},
			{Policy: PolicyLocalNoGate, TagsPerBlock: 8},
			{Policy: PolicyGlobalUnlimited},
			{Policy: PolicyGlobalBounded, GlobalTags: 8},
			{Policy: PolicyKBound, TagsPerBlock: 8},
		} {
			res, err := Run(c.g, mem.NewImage(), cfg)
			if err == nil {
				t.Errorf("%s, %v: a forged tag ran without error (completed=%v)", c.name, cfg.Policy, res.Completed)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, `"victim"`) || !strings.Contains(msg, fmt.Sprintf("%#x,", c.tag)) {
				t.Errorf("%s, %v: error does not name the node and the tag: %v", c.name, cfg.Policy, err)
			}
		}
	}
}

// TestTokenIs32Bytes pins the in-flight token's size: two per cache line.
func TestTokenIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(token{}); size != 32 {
		t.Fatalf("token is %d bytes, want 32", size)
	}
}
