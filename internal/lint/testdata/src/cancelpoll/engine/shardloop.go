package engine

import "fix/cancel"

// The phase-gated worker shape: a coordinator releases phases and each
// worker runs a gated loop. Both are //tyr:cycleloop obligations — a
// stopped run must park within one phase, so every worker polls the
// flag each time its gate opens.

type gate struct{ ch chan uint32 }

func (g *gate) wait() uint32 { return <-g.ch }

// worker is the good gated case: a declared method (not a closure —
// closures are excluded from the poll by design), polling the flag
// inside its gated loop before doing phase work.
//
//tyr:cycleloop
func worker(g *gate, stop *cancel.Flag, work func(uint32)) {
	for {
		phase := g.wait()
		if phase == ^uint32(0) {
			return
		}
		if !stop.Stopped() {
			work(phase)
		}
	}
}

// freeRunner is the bad gated case: the gate sequences it, but once
// released it never consults the flag — a stopped run spins on.
//
//tyr:cycleloop
func freeRunner(g *gate, stop *cancel.Flag, work func(uint32)) { // want `never calls Stopped\(\)`
	for {
		phase := g.wait()
		if phase == ^uint32(0) {
			return
		}
		work(phase)
	}
}
