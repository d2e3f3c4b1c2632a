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

// TestSanitizeDoubleFree frees a tag that was never granted: a changeTag
// fabricates context 7 and routes it straight into a free. It runs under
// tyr, whose root pool of 8 holds index 7; every store refuses a tag its
// space's list does not hold, before any free could see it.
func TestSanitizeDoubleFree(t *testing.T) {
	g := dfg.NewGraph("dblfree")
	fwd := g.AddNode(dfg.OpForward, 0, 1, "entry")
	ct := g.AddNode(dfg.OpChangeTag, 0, 2, "forge")
	g.SetConst(ct, 0, 7) // fabricated tag, never allocated
	f2 := g.AddNode(dfg.OpFree, 0, 1, "bogus.free")
	f1 := g.AddNode(dfg.OpFree, 0, 1, "root.free")
	g.RootFree = f1
	// Order matters: the changeTag consumes its token before root.free
	// fires, so the only live token at the bogus free carries tag 7.
	g.Connect(fwd, 0, ct, 1)
	g.Connect(fwd, 0, f1, 0)
	g.Connect(ct, dfg.CTDataOut, f2, 0)
	g.Inject(dfg.Port{Node: fwd, In: 0}, 1)

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

// TestSanitizeOrphansAtCompletion retags a token into a context that nobody
// allocated, 9 of the root pool's 16 under tyr, and parks it at a
// half-filled join. The root free still fires, so the machine quiesces
// with a token left over and no allocate starved. With the sanitizer on,
// its completion audit reports the orphans; without it, the run is an
// orphan error, never a completion.
func TestSanitizeOrphansAtCompletion(t *testing.T) {
	g := dfg.NewGraph("orphan")
	fwd := g.AddNode(dfg.OpForward, 0, 1, "entry")
	ct := g.AddNode(dfg.OpChangeTag, 0, 2, "leak")
	g.SetConst(ct, 0, 9)
	b := g.AddNode(dfg.OpJoin, 0, 2, "stuck")
	f1 := g.AddNode(dfg.OpFree, 0, 1, "root.free")
	g.RootFree = f1
	g.Connect(fwd, 0, ct, 1)
	g.Connect(fwd, 0, f1, 0)
	g.Connect(ct, dfg.CTDataOut, b, 0) // port 1 never fed
	g.Inject(dfg.Port{Node: fwd, In: 0}, 1)

	cfg := Config{Policy: PolicyTyr, TagsPerBlock: 16}
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
