package core

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/mem"
)

// Batched lockstep execution (DESIGN.md §12): one worker advances B
// independent simulation instances of the same compiled graph, one cycle
// each per round. Every piece of mutable machine state — token stores,
// tag pools and maps, calendar queues, ready deques, counters — already
// lives on the per-instance machine struct, so instances are isolated by
// construction and each one's Result is bit-identical to a serial run of
// that instance alone (enforced by the differential suite and committed
// golden digests). What the batch shares is everything read-only: the
// graph itself and the graphPlan's firing metadata (constant prefills,
// bitset widths, reserves, region indices), so graph traversal and
// dispatch state stay hot across instances the way vector lanes amortize
// instruction fetch.
//
// Instances retire independently: a finished (or failed, or cancelled)
// instance clears its bit in the active-instance bitset and the batch
// rolls on without it, so one long-running cell never stalls its
// neighbours' completions and a mid-batch deadline cancels exactly one
// instance.

// BatchInstance is one instance of a lockstep batch: its own memory image
// (mutated in place, exactly as Run would) and its own configuration —
// co-batched instances may differ in tag policy, budgets, stop flags, and
// attached tooling; only the compiled graph and the image's region layout
// must agree across the batch.
//
// Per-instance Memory models and Tracers must not be shared between
// instances: each machine drives its model with its own cycle clock.
type BatchInstance struct {
	Cfg Config
	Im  *mem.Image
}

// BatchOutcome is one instance's result, positionally matching the
// BatchInstance slice passed to RunBatch. Err carries per-instance
// failures (cancellation via the instance's Stop flag, MaxCycles,
// program bugs); a deadlock is a Result outcome, not an error, exactly
// as in Run.
type BatchOutcome struct {
	Res Result
	Err error
}

// maxBatch bounds the lockstep width; beyond this the per-instance state
// no longer fits any cache level and the amortization argument inverts.
const maxBatch = 1024

// RunBatch executes every instance of a lockstep batch against one
// compiled graph. The returned slice has one outcome per instance, in
// order. A top-level error means the batch itself was malformed (no
// instances, mismatched memory layouts, invalid policy configuration) and
// nothing ran.
//
// Instances run the machine's one cycle loop (stepCycle) interleaved one
// cycle at a time.
func RunBatch(g *dfg.Graph, insts []BatchInstance) ([]BatchOutcome, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(insts) > maxBatch {
		return nil, fmt.Errorf("core: batch of %d exceeds the %d-instance cap", len(insts), maxBatch)
	}
	plan, err := planFor(g, insts[0].Im)
	if err != nil {
		return nil, err
	}
	ms := make([]*machine, len(insts))
	for i := range insts {
		cfg := insts[i].Cfg.withDefaults()
		if err := validateConfig(cfg); err != nil {
			return nil, fmt.Errorf("core: batch instance %d: %w", i, err)
		}
		if !plan.matches(g, insts[i].Im) {
			return nil, fmt.Errorf("core: batch instance %d: memory image region layout differs from instance 0 (batches share one graph plan)", i)
		}
		ms[i] = newMachineFromPlan(g, insts[i].Im, cfg, plan)
	}
	b := &batchRunner{
		ms:     ms,
		out:    make([]BatchOutcome, len(ms)),
		active: make([]uint64, (len(ms)+63)/64),
	}
	for i := range ms {
		if err := ms[i].start(); err != nil {
			b.out[i] = BatchOutcome{Err: err}
			continue
		}
		b.setActive(i)
	}
	b.run()
	return b.out, nil
}

// batchRunner drives B machines in lockstep. The active bitset tracks
// instances still running; retirement clears a bit without disturbing
// the others.
type batchRunner struct {
	ms      []*machine
	out     []BatchOutcome
	active  []uint64
	nActive int
}

func (b *batchRunner) setActive(i int) {
	b.active[i>>6] |= 1 << (i & 63)
	b.nActive++
}

//tyr:hotpath
func (b *batchRunner) isActive(i int) bool {
	return b.active[i>>6]&(1<<(i&63)) != 0
}

// retire removes instance i from the lockstep rotation and records its
// outcome: the finished Result, or the error that ended it.
func (b *batchRunner) retire(i int, err error) {
	b.active[i>>6] &^= 1 << (i & 63)
	b.nActive--
	if err != nil {
		b.out[i] = BatchOutcome{Err: err}
		return
	}
	res, ferr := b.ms[i].finish()
	b.out[i] = BatchOutcome{Res: res, Err: ferr}
}

// run is the lockstep loop: every round advances each still-active
// instance by one cycle, polling that instance's own cancel flag first so
// a per-request deadline retires exactly its instance within one cycle
// boundary.
//
//tyr:cycleloop
func (b *batchRunner) run() {
	for b.nActive > 0 {
		for i := range b.ms {
			if !b.isActive(i) {
				continue
			}
			m := b.ms[i]
			if m.cfg.Stop.Stopped() {
				b.retire(i, m.stopErr())
				continue
			}
			done, err := m.stepCycle()
			if err != nil {
				b.retire(i, err)
				continue
			}
			if done {
				b.retire(i, nil)
			}
		}
	}
}
