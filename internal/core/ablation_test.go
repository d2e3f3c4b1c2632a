package core

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dfg"
	"repro/internal/mem"
)

// The ablation policies back the paper's Sec. VIII discussion: local tag
// spaces alone (without the readiness protocol) do not guarantee forward
// progress, and TTDA-style k-bounding of leaf loops does not bound
// outer-loop parallelism.

func TestLocalNoGateDeadlocks(t *testing.T) {
	// Without allocate's readiness rule, the external transfer point can
	// take a loop's last tag while an in-flight iteration still needs the
	// backedge — with 2 tags per block this wedges quickly.
	g := compileNested(t, 32, 32)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyLocalNoGate, TagsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("local pools without gating completed (%d cycles); expected deadlock", res.Cycles)
	}
	if len(res.Deadlock.PendingAllocs) == 0 {
		t.Error("no starved allocates reported")
	}
}

func TestLocalNoGateMayCompleteWithAmpleTags(t *testing.T) {
	// With pools larger than any possible demand, the gating never
	// matters and the run completes with the right answer.
	g := compileNested(t, 6, 6)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyLocalNoGate, TagsPerBlock: 512, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %v", res.Deadlock)
	}
	want := int64(6 * (5 * 6 / 2))
	if res.ResultValue != want {
		t.Errorf("result %d, want %d", res.ResultValue, want)
	}
}

func TestKBoundCompletesAndBoundsLeafOnly(t *testing.T) {
	g := compileNested(t, 24, 24)
	res, err := Run(g, mem.NewImage(), Config{Policy: PolicyKBound, TagsPerBlock: 4, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("k-bounding did not complete: %v", res.Deadlock)
	}
	want := int64(24 * (23 * 24 / 2))
	if res.ResultValue != want {
		t.Errorf("result %d, want %d", res.ResultValue, want)
	}
	if res.KBoundPeakPerInvocation > 4 {
		t.Errorf("an invocation held %d tags, k is 4", res.KBoundPeakPerInvocation)
	}
	if res.KBoundPeakPerInvocation < 2 {
		t.Errorf("per-invocation peak %d implausibly low", res.KBoundPeakPerInvocation)
	}
	// Each *invocation* of the leaf loop is capped at k iterations, but
	// invocations themselves are unbounded, so total leaf tags in use
	// exceed k when many outer iterations are in flight — k-bounding's
	// blind spot.
	for _, s := range res.Spaces {
		switch s.Block {
		case "inner":
			if s.Tags != 4 {
				t.Errorf("leaf pool size reported as %d, want 4", s.Tags)
			}
			if s.PeakInUse <= 4 {
				t.Errorf("leaf usage %d should exceed the per-invocation cap when outer parallelism is unbounded", s.PeakInUse)
			}
		case "outer":
			if s.Tags != 0 {
				t.Errorf("outer loop should be unbounded, reported pool %d", s.Tags)
			}
		}
	}
}

func TestKBoundOuterStateStillExplodes(t *testing.T) {
	// The paper's argument against stopping at k-bounding: outer loops
	// remain unthrottled, so peak state keeps growing with the outer trip
	// count even though each leaf loop is capped.
	peak := func(outer int64) int64 {
		g := compileNested(t, outer, 8)
		res, err := Run(g, mem.NewImage(), Config{Policy: PolicyKBound, TagsPerBlock: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("outer=%d did not complete", outer)
		}
		return res.PeakLive
	}
	small, large := peak(8), peak(64)
	if large < 2*small {
		t.Errorf("k-bounded peak state did not grow with outer trips: %d -> %d", small, large)
	}

	// TYR, by contrast, holds peak state nearly flat across the same
	// scaling (both loops bounded).
	tyrPeak := func(outer int64) int64 {
		g := compileNested(t, outer, 8)
		res, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakLive
	}
	tSmall, tLarge := tyrPeak(8), tyrPeak(64)
	if float64(tLarge) > 1.5*float64(tSmall) {
		t.Errorf("TYR peak state grew with outer trips: %d -> %d", tSmall, tLarge)
	}
}

func TestKBoundMatchesReferenceResults(t *testing.T) {
	g := compileNested(t, 10, 13)
	kb, err := Run(g, mem.NewImage(), Config{Policy: PolicyKBound, TagsPerBlock: 8, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	ty, err := Run(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if kb.ResultValue != ty.ResultValue {
		t.Errorf("k-bound result %d != tyr %d", kb.ResultValue, ty.ResultValue)
	}
}

// TestLocalNoGateLeftoverWorkIsDeadlock: ungated, local-nogate at the
// default 64 tags lets the root free fire while work is still live on
// tiny dconv, small dconv and small dmm, and that work then starves. A run
// is complete only once it has drained, so each reports a deadlock naming
// its starved blocks, not a completion with wrong output.
func TestLocalNoGateLeftoverWorkIsDeadlock(t *testing.T) {
	for _, c := range []struct {
		scale apps.Scale
		app   string
	}{{apps.ScaleTiny, "dconv"}, {apps.ScaleSmall, "dconv"}, {apps.ScaleSmall, "dmm"}} {
		for _, app := range apps.Suite(c.scale) {
			if app.Name != c.app {
				continue
			}
			g, err := app.Tagged()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(g, app.NewImage(), Config{Policy: PolicyLocalNoGate})
			if err != nil {
				t.Fatalf("%v %s: %v", c.scale, app.Name, err)
			}
			if res.Completed || !res.Deadlocked || len(res.Deadlock.Spaces) == 0 || res.Deadlock.LiveTokens == 0 {
				t.Errorf("%v %s: completed=%v deadlocked=%v, want a deadlock naming its starved blocks: %v",
					c.scale, app.Name, res.Completed, res.Deadlocked, res.Deadlock)
			}
		}
	}
}

// TestAllocateFiresOnce forges hazard D2 of the Theorem 1 analysis: an
// allocate instance whose tag has popped, waiting for its ready, is put
// back on the ready queue. Firing it again would hand out a second tag,
// so the run fails instead.
func TestAllocateFiresOnce(t *testing.T) {
	g := compileNested(t, 8, 8)
	m, err := newMachine(g, mem.NewImage(), Config{Policy: PolicyTyr, TagsPerBlock: 8}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	m.start()
	forged := false
	for !forged {
		done, err := m.stepCycle()
		if err != nil || done {
			t.Fatalf("the run ended (done=%v, err=%v) before an allocate popped without its ready", done, err)
		}
		for nid := range m.stores {
			ws := &m.stores[nid]
			if m.nodes[nid].op != dfg.OpAllocate || forged {
				continue
			}
			ws.forEach(func(tag uint64, slot int32) {
				if !forged && ws.popped(slot) && !ws.queued(slot) {
					ws.setFlag(slot, wsQueued)
					m.ready = append(m.ready, fireRef{node: dfg.NodeID(nid), tag: tag})
					forged = true
				}
			})
		}
	}
	for {
		done, err := m.stepCycle()
		if err != nil {
			if !strings.Contains(err.Error(), "fired again") {
				t.Fatalf("wrong error: %v", err)
			}
			return
		}
		if done {
			t.Fatal("the forged re-queue ran to the end without an error")
		}
	}
}
