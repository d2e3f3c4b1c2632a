package compile_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/prog"
)

// coreRun executes a tagged graph under TYR and returns its peak live
// tokens.
func coreRun(g *dfg.Graph, im *mem.Image, tags int) (int64, error) {
	res, err := core.Run(g, im, core.Config{Policy: core.PolicyTyr, TagsPerBlock: tags})
	if err != nil {
		return 0, err
	}
	return res.PeakLive, nil
}

// TestDmvLinkageMatchesFig7 pins the compiled shape of dmv to the paper's
// Fig. 7: two concurrent blocks (outer and inner loop) beyond the root,
// each guarded by exactly two transfer points — an external allocate at
// the loop entry and an internal one on the backedge — plus one free per
// block fed by its barrier join.
func TestDmvLinkageMatchesFig7(t *testing.T) {
	app := apps.Dmv(8, 8, 1)
	g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatal(err)
	}

	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (root + outer + inner)", len(g.Blocks))
	}
	byName := map[string]dfg.BlockID{}
	for _, b := range g.Blocks {
		byName[b.Name] = b.ID
	}
	outer, okO := byName["dmv.outer"]
	inner, okI := byName["dmv.inner"]
	if !okO || !okI {
		t.Fatalf("missing loop blocks: %v", byName)
	}
	if !g.Blocks[outer].TailRecursive || !g.Blocks[inner].TailRecursive {
		t.Error("loop blocks must be tail-recursive")
	}
	if g.Blocks[outer].Parent != 0 || g.Blocks[inner].Parent != outer {
		t.Errorf("block tree wrong: outer parent %d, inner parent %d",
			g.Blocks[outer].Parent, g.Blocks[inner].Parent)
	}

	type allocInfo struct {
		external int
		internal int
	}
	allocs := map[dfg.BlockID]*allocInfo{}
	frees := map[dfg.BlockID]int{}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Op {
		case dfg.OpAllocate:
			ai := allocs[n.Space]
			if ai == nil {
				ai = &allocInfo{}
				allocs[n.Space] = ai
			}
			if n.External {
				ai.external++
				// The external transfer point lives in the parent block.
				if n.Block != g.Blocks[n.Space].Parent {
					t.Errorf("external allocate for %q placed in block %d, want parent %d",
						g.Blocks[n.Space].Name, n.Block, g.Blocks[n.Space].Parent)
				}
			} else {
				ai.internal++
				// The backedge transfer point lives inside the loop.
				if n.Block != n.Space {
					t.Errorf("internal allocate for %q placed in block %d", g.Blocks[n.Space].Name, n.Block)
				}
			}
		case dfg.OpFree:
			frees[n.Space]++
		}
	}
	for _, blk := range []dfg.BlockID{outer, inner} {
		ai := allocs[blk]
		if ai == nil || ai.external != 1 || ai.internal != 1 {
			t.Errorf("block %q: allocates = %+v, want 1 external + 1 internal (the two XPs of Fig. 7)",
				g.Blocks[blk].Name, ai)
		}
		if frees[blk] != 1 {
			t.Errorf("block %q: %d frees, want 1", g.Blocks[blk].Name, frees[blk])
		}
	}
	if frees[0] != 1 {
		t.Errorf("root frees = %d, want 1", frees[0])
	}

	// Every free is fed by its block's barrier join (or a single sink).
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Op != dfg.OpFree {
			continue
		}
		feeders := 0
		for j := range g.Nodes {
			for _, dests := range g.Nodes[j].Outs {
				for _, d := range dests {
					if d.Node == n.ID {
						feeders++
					}
				}
			}
		}
		if feeders != 1 {
			t.Errorf("free %q fed by %d producers, want exactly 1 (the barrier)", n.Label, feeders)
		}
	}
}

// TestFunctionLinkageShape pins the call linkage: one function block with
// entry forwards, dynamic-return changeTags, and one external allocate
// per call site sharing the block's tag space.
func TestFunctionLinkageShape(t *testing.T) {
	p := prog.NewProgram("linkage", "main")
	p.AddFunc("f", []string{"x"}, prog.Add(prog.V("x"), prog.C(1)))
	p.AddFunc("main", nil,
		prog.Add(prog.CallE("f", prog.C(1)), prog.CallE("f", prog.C(2))))
	g, err := compile.Tagged(p, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fblk dfg.BlockID = -1
	for _, b := range g.Blocks {
		if b.Name == "f" {
			fblk = b.ID
			if b.Kind != dfg.BlockFunc || b.TailRecursive {
				t.Errorf("function block misclassified: %+v", b)
			}
		}
	}
	if fblk < 0 {
		t.Fatal("no block for f")
	}
	externals, dynReturns := 0, 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Op == dfg.OpAllocate && n.Space == fblk {
			if !n.External {
				t.Error("function allocate must be external (no backedge)")
			}
			externals++
		}
		if n.Op == dfg.OpChangeTagDyn && n.Block == fblk {
			dynReturns++
		}
	}
	if externals != 2 {
		t.Errorf("%d allocates into f, want 2 (one per call site, shared free list)", externals)
	}
	if dynReturns != 1 {
		t.Errorf("%d dynamic-return changeTags, want 1", dynReturns)
	}
}

// TestTheorem2Bound verifies the paper's live-token bound T*N*M on real
// workloads across tag budgets.
func TestTheorem2Bound(t *testing.T) {
	for _, app := range []*apps.App{apps.Dmv(12, 12, 1), apps.Spmspm(10, 10, 2)} {
		g, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
		if err != nil {
			t.Fatal(err)
		}
		stats := g.ComputeStats()
		_ = stats
		for _, tags := range []int{2, 8} {
			im := app.NewImage()
			res, err := coreRun(g, im, tags)
			if err != nil {
				t.Fatal(err)
			}
			bound := int64(tags) * int64(g.NumNodes()) * int64(g.MaxInputs())
			if res > bound {
				t.Errorf("%s tags=%d: peak %d exceeds T*N*M = %d", app.Name, tags, res, bound)
			}
		}
	}
}
