package core

import (
	"fmt"
	"strings"

	"repro/internal/dfg"
)

// The sanitizer (Config.Sanitize) augments a run with tag-lifecycle and
// token-store checks, reporting structured diagnostics instead of a silent
// wrong answer or an opaque hang. It is the dynamic complement of the
// static passes in internal/analysis: anything the verifier cannot prove
// (data-dependent routing, dynamically constructed tags) is checked here.
//
// Checks, in lifecycle order:
//
//   - join fan-in overflow: a second token arriving at an input port a
//     dynamic instance has already filled (a free-barrier or steering bug;
//     every in-context port must see exactly one token per context);
//   - free of a tag with live tokens (the free barrier fired early);
//   - double free: a free of a tag that is not currently allocated, or
//     allocated for a different space;
//   - at completion: tag-pool leaks (tags still allocated after the root
//     context freed), orphaned tokens, and orphaned instances (join fan-in
//     underflow — instances that waited forever on an input that never
//     came).

// DiagKind classifies a sanitizer diagnostic.
type DiagKind uint8

const (
	// DiagTokenCollision: two tokens arrived at the same (node, port, tag)
	// — join fan-in overflow.
	DiagTokenCollision DiagKind = iota
	// DiagDoubleFree: a free fired for a tag that is not allocated (or
	// belongs to a different space).
	DiagDoubleFree
	// DiagFreeWithLive: a free fired while tokens carrying the tag were
	// still live — the free barrier did not cover the whole block.
	DiagFreeWithLive
	// DiagTagLeak: tags still allocated after completion.
	DiagTagLeak
	// DiagOrphanTokens: tokens still live after completion.
	DiagOrphanTokens
	// DiagOrphanInstance: a dynamic instance still waiting for operands at
	// completion — join fan-in underflow.
	DiagOrphanInstance
)

func (k DiagKind) String() string {
	switch k {
	case DiagTokenCollision:
		return "token-collision"
	case DiagDoubleFree:
		return "double-free"
	case DiagFreeWithLive:
		return "free-with-live-tokens"
	case DiagTagLeak:
		return "tag-leak"
	case DiagOrphanTokens:
		return "orphan-tokens"
	case DiagOrphanInstance:
		return "orphan-instance"
	}
	return "unknown"
}

// Diagnostic is one structured sanitizer finding.
type Diagnostic struct {
	Kind  DiagKind
	Cycle int64
	Node  dfg.NodeID // offending node, or dfg.InvalidNode
	Label string     // the node's label, when it has one
	Tag   uint64     // the tag involved, when meaningful
	// Event is the trace sequence number at the moment of the finding
	// (the next event the recorder would stamp), so a finding can be
	// located in an exported trace. Zero when no tracer was attached.
	Event  uint64
	Detail string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] cycle %d", d.Kind, d.Cycle)
	if d.Event > 0 {
		fmt.Fprintf(&b, " ev#%d", d.Event)
	}
	if d.Node != dfg.InvalidNode {
		fmt.Fprintf(&b, " n%d", d.Node)
		if d.Label != "" {
			fmt.Fprintf(&b, " %q", d.Label)
		}
	}
	if d.Detail != "" {
		b.WriteString(": ")
		b.WriteString(d.Detail)
	}
	return b.String()
}

// SanitizeError carries every diagnostic the sanitizer collected. Callers
// unwrap it with errors.As to inspect individual findings.
type SanitizeError struct {
	Diags []Diagnostic
}

func (e *SanitizeError) Error() string {
	if len(e.Diags) == 1 {
		return "sanitizer: " + e.Diags[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sanitizer: %d findings:", len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}

// sanitizer is the per-run check state. It reads which tags are out from
// the machine's tag spaces (tagSpace.by).
type sanitizer struct {
	diags []Diagnostic
	// live[s][i] counts the live tokens carrying tag s<<32 | i, a per-space
	// slice indexed by the pool index i.
	live [][]int64
}

func newSanitizer(nspaces int) *sanitizer {
	return &sanitizer{live: make([][]int64, nspaces)}
}

// splitTag returns a tag's space and pool index.
func splitTag(tag uint64) (int, int) { return int(tag >> 32), int(uint32(tag)) }

// count adds delta to the live tokens carrying tag. A tag past every
// index its space has handed out is not counted: the store it is
// delivered to refuses it and fails the run.
func (s *sanitizer) count(m *machine, tag uint64, delta int64) {
	sp, i := splitTag(tag)
	if sp >= len(m.spaces) || i >= len(m.spaces[sp].by) {
		return
	}
	for len(s.live[sp]) <= i {
		s.live[sp] = append(s.live[sp], 0)
	}
	s.live[sp][i] += delta
}

// liveOf reports the live tokens carrying tag.
func (s *sanitizer) liveOf(tag uint64) int64 {
	sp, i := splitTag(tag)
	if sp < len(s.live) && i < len(s.live[sp]) {
		return s.live[sp][i]
	}
	return 0
}

// fail records a diagnostic and returns it as the run-aborting error.
func (s *sanitizer) fail(d Diagnostic) error {
	s.diags = append(s.diags, d)
	return &SanitizeError{Diags: s.diags}
}

// checkFree validates a free firing; a nil return means the free is sound.
func (s *sanitizer) checkFree(m *machine, n *dfg.Node, tag uint64) error {
	if live := s.liveOf(tag); live != 0 {
		return s.fail(Diagnostic{
			Kind: DiagFreeWithLive, Cycle: m.cycle, Node: n.ID, Label: n.Label, Tag: tag, Event: m.evSeq(),
			Detail: fmt.Sprintf("tag %#x freed with %d live tokens still carrying it (free barrier does not cover the block)", tag, live),
		})
	}
	sp, _ := splitTag(tag)
	if sp >= len(m.spaces) || m.spaces[sp].drawnOn(dfg.BlockID(sp), tag) == notOut {
		return s.fail(Diagnostic{
			Kind: DiagDoubleFree, Cycle: m.cycle, Node: n.ID, Label: n.Label, Tag: tag, Event: m.evSeq(),
			Detail: fmt.Sprintf("tag %#x is not allocated (freed twice, or never granted)", tag),
		})
	}
	if dfg.BlockID(sp) != n.Space {
		return s.fail(Diagnostic{
			Kind: DiagDoubleFree, Cycle: m.cycle, Node: n.ID, Label: n.Label, Tag: tag, Event: m.evSeq(),
			Detail: fmt.Sprintf("tag %#x belongs to space %q but is freed into %q",
				tag, m.g.Blocks[sp].Name, m.g.Blocks[n.Space].Name),
		})
	}
	return nil
}

// atCompletion runs the end-of-program audits. It returns nil when the
// machine drained cleanly.
func (s *sanitizer) atCompletion(m *machine) error {
	// Leaks come in tag order: space, then pool index.
leaks:
	for sp := range m.spaces {
		for i, b := range m.spaces[sp].by {
			if b == notOut {
				continue
			}
			tag := uint64(sp)<<32 | uint64(i)
			s.diags = append(s.diags, Diagnostic{
				Kind: DiagTagLeak, Cycle: m.cycle, Node: dfg.InvalidNode, Tag: tag, Event: m.evSeq(),
				Detail: fmt.Sprintf("tag %#x of space %q still allocated at completion", tag, m.g.Blocks[sp].Name),
			})
			if len(s.diags) >= maxDiags {
				break leaks
			}
		}
	}
	if m.live != 0 {
		s.diags = append(s.diags, Diagnostic{
			Kind: DiagOrphanTokens, Cycle: m.cycle, Node: dfg.InvalidNode, Event: m.evSeq(),
			Detail: fmt.Sprintf("%d tokens still live at completion", m.live),
		})
	}
	for nid := range m.stores {
		ws := &m.stores[nid]
		n := &m.g.Nodes[nid]
		ws.forEach(func(tag uint64, slot int32) {
			if len(s.diags) >= maxDiags {
				return
			}
			s.diags = append(s.diags, Diagnostic{
				Kind: DiagOrphanInstance, Cycle: m.cycle, Node: n.ID, Label: n.Label, Tag: tag, Event: m.evSeq(),
				Detail: fmt.Sprintf("instance still waiting for %d operand(s) at completion (fan-in underflow)", ws.need[slot]),
			})
		})
	}
	if len(s.diags) == 0 {
		return nil
	}
	return &SanitizeError{Diags: s.diags}
}

// maxDiags caps completion-audit output so a badly broken run stays
// readable.
const maxDiags = 32
