package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/mem"
)

// sanDiag runs the graph under the sanitizer and returns the structured
// diagnostics, failing the test if the error is not a SanitizeError.
func sanDiag(t *testing.T, g *dfg.Graph, cfg Config) []Diagnostic {
	t.Helper()
	cfg.Sanitize = true
	_, err := Run(g, mem.NewImage(), cfg)
	if err == nil {
		t.Fatal("sanitizer reported no error on a corrupted graph")
	}
	var serr *SanitizeError
	if !errors.As(err, &serr) {
		t.Fatalf("error is not a SanitizeError: %v", err)
	}
	if len(serr.Diags) == 0 {
		t.Fatal("SanitizeError carries no diagnostics")
	}
	return serr.Diags
}

func hasDiag(diags []Diagnostic, kind DiagKind) bool {
	for _, d := range diags {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// TestSanitizeCleanRun is the false-positive control: a correct nested-loop
// program must run to completion with the sanitizer on.
func TestSanitizeCleanRun(t *testing.T) {
	g := compileNested(t, 10, 10)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 2, Sanitize: true})
	if err != nil {
		t.Fatalf("sanitizer flagged a clean run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %v", res.Deadlock)
	}
}

// retiredTagGraph hands out a tag of block "child" and retires it, then
// reaches the retired context again. The root allocates the tag; "enter"
// retags a token into the child context, whose free retires the tag; two
// forwards later, "reenter" retags a second token with the same tag and
// sends it to the child-block node "victim", which decl declares. A store
// holds the token, since the index was handed out. reenter's control
// output feeds the root free, so no token carrying the root's tag
// outlives it.
func retiredTagGraph(t *testing.T, decl string) *dfg.Graph {
	t.Helper()
	g, err := dfg.ParseGraph([]byte(`graph "retired"
block 1 func parent=0 name="child"
node 0 forward blk=0 nin=1 label="entry"
node 1 allocate blk=0 nin=2 space=1 external label="child.alloc"
node 2 changeTag blk=0 nin=2 label="enter"
node 3 free blk=1 nin=1 space=1 label="child.free"
node 4 forward blk=0 nin=1 label="delay1"
node 5 forward blk=0 nin=1 label="delay2"
node 6 changeTag blk=0 nin=2 label="reenter"
node 7 ` + decl + ` label="victim"
node 8 free blk=0 nin=1 space=0 label="root.free"
edge 0.0 -> 1.0
edge 0.0 -> 1.1
edge 0.0 -> 2.1
edge 0.0 -> 6.1
edge 1.0 -> 2.0
edge 1.0 -> 4.0
edge 2.0 -> 3.0
edge 4.0 -> 5.0
edge 5.0 -> 6.0
edge 6.0 -> 7.0
edge 6.1 -> 8.0
inject 0.0 = 1
rootfree 8
`))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSanitizeDoubleFree frees a tag its free has already retired: the
// retired context's token reaches a second free of the child block.
func TestSanitizeDoubleFree(t *testing.T) {
	g := retiredTagGraph(t, "free blk=1 nin=1 space=1")
	diags := sanDiag(t, g, Config{Policy: PolicyTyr, TagsPerBlock: 8})
	if !hasDiag(diags, DiagDoubleFree) {
		t.Fatalf("no double-free diagnostic: %v", diags)
	}
}

// TestSanitizeFreeWithLiveTokens fires the root free while another token of
// the same context is still parked at a half-filled instruction — the
// free-barrier violation the static verifier catches as missing coverage.
func TestSanitizeFreeWithLiveTokens(t *testing.T) {
	g := dfg.NewGraph("earlyfree")
	fwd := g.AddNode(dfg.OpForward, 0, 1, "entry")
	b := g.AddNode(dfg.OpBin, 0, 2, "stuck")
	g.Nodes[b].Bin = dfg.BinAdd
	f1 := g.AddNode(dfg.OpFree, 0, 1, "root.free")
	g.RootFree = f1
	g.Connect(fwd, 0, b, 0) // port 1 never fed: b's token stays live
	g.Connect(fwd, 0, f1, 0)
	g.Inject(dfg.Port{Node: fwd, In: 0}, 1)

	diags := sanDiag(t, g, Config{Policy: PolicyGlobalUnlimited})
	if !hasDiag(diags, DiagFreeWithLive) {
		t.Fatalf("no free-with-live-tokens diagnostic: %v", diags)
	}
}

// TestSanitizeOrphansAtCompletion parks the retired context's token at a
// half-filled join of the child block. The root free still fires, so the
// machine quiesces with a token left over and no allocate starved. With
// the sanitizer on, its completion audit reports the orphans; without it,
// the run is an orphan error, never a completion.
func TestSanitizeOrphansAtCompletion(t *testing.T) {
	g := retiredTagGraph(t, "join blk=1 nin=2") // port 1 never fed
	cfg := Config{Policy: PolicyTyr, TagsPerBlock: 8}
	diags := sanDiag(t, g, cfg)
	if !hasDiag(diags, DiagOrphanTokens) {
		t.Errorf("no orphan-tokens diagnostic: %v", diags)
	}
	if !hasDiag(diags, DiagOrphanInstance) {
		t.Errorf("no orphan-instance diagnostic: %v", diags)
	}
	res, err := Run(g, mem.NewImage(), cfg)
	if err == nil || !strings.Contains(err.Error(), "1 tokens left over") || res.Completed || res.Deadlocked {
		t.Errorf("unsanitized: completed=%v deadlocked=%v err=%v, want an orphan error", res.Completed, res.Deadlocked, err)
	}
}

// TestSanitizeTokenCollision double-connects an output to the same input
// port, so the same (node, port, tag) sees two tokens: fan-in overflow.
func TestSanitizeTokenCollision(t *testing.T) {
	g := dfg.NewGraph("collide")
	fwd := g.AddNode(dfg.OpForward, 0, 1, "entry")
	b := g.AddNode(dfg.OpBin, 0, 2, "victim")
	g.Nodes[b].Bin = dfg.BinAdd
	g.SetConst(b, 1, 1)
	f1 := g.AddNode(dfg.OpFree, 0, 1, "root.free")
	g.RootFree = f1
	g.Connect(fwd, 0, b, 0)
	g.Connect(fwd, 0, b, 0) // duplicated edge
	g.Connect(b, 0, f1, 0)
	g.Inject(dfg.Port{Node: fwd, In: 0}, 1)

	diags := sanDiag(t, g, Config{Policy: PolicyGlobalUnlimited})
	if !hasDiag(diags, DiagTokenCollision) {
		t.Fatalf("no token-collision diagnostic: %v", diags)
	}
}
