// Quickstart: write a small program in the structured IR, compile it to a
// tagged dataflow graph, and execute it on the TYR machine.
//
//	go run ./examples/quickstart
//
// The program sums the squares of 0..n-1 with a loop — which the compiler
// turns into a concurrent block with its own local tag space — and stores
// the running values to memory. The run validates against the reference
// interpreter and prints the machine's parallelism/state metrics.
package main

import (
	"fmt"
	"log"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/prog"
)

func main() {
	const n = 100

	// sumsq(n): for i in [0,n): out[i] = i*i; acc += i*i; return acc
	p := prog.NewProgram("sumsq", "main")
	p.DeclareMem("out", n)
	p.AddFunc("main", []string{"n"}, prog.V("acc"),
		prog.ForRange("sumsq.loop", "i", prog.C(0), prog.V("n"),
			[]prog.LoopVar{prog.LV("acc", prog.C(0))},
			prog.LetS("sq", prog.Mul(prog.V("i"), prog.V("i"))),
			prog.St("out", prog.V("i"), prog.V("sq")),
			prog.Set("acc", prog.Add(prog.V("acc"), prog.V("sq"))),
		),
	)
	if err := prog.Check(p); err != nil {
		log.Fatalf("program is invalid: %v", err)
	}

	// Reference semantics first: the interpreter is the oracle.
	refImage := prog.DefaultImage(p)
	ref, err := prog.Run(p, refImage, prog.RunConfig{Args: []int64{n}})
	if err != nil {
		log.Fatalf("reference run: %v", err)
	}
	fmt.Printf("reference result: %d (%d dynamic instructions)\n\n", ref.Ret, ref.Stats.DynInstrs)

	// Compile to the tagged dataflow graph TYR executes.
	g, err := compile.Tagged(p, compile.Options{EntryArgs: []int64{n}})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	st := g.ComputeStats()
	fmt.Printf("compiled graph: %d instructions in %d concurrent blocks (%d tag-management ops)\n\n",
		st.Nodes, st.Blocks, st.TagOps)

	// Execute on TYR with a handful of tags per local tag space.
	for _, tags := range []int{2, 8, 64} {
		im := prog.DefaultImage(p)
		res, err := core.Run(g, im, core.Config{
			Policy:       core.PolicyTyr,
			TagsPerBlock: tags,
			IssueWidth:   128,
			Sanitize:     true,
		})
		if err != nil {
			log.Fatalf("tyr run (tags=%d): %v", tags, err)
		}
		if !res.Completed || res.ResultValue != ref.Ret {
			log.Fatalf("tags=%d: wrong result %d (completed=%v), want %d",
				tags, res.ResultValue, res.Completed, ref.Ret)
		}
		if !im.Equal(refImage) {
			log.Fatalf("tags=%d: memory differs from reference", tags)
		}
		fmt.Printf("TYR %2d tags/block: %5d cycles, IPC %5.1f, peak live tokens %4d  (result %d, validated)\n",
			tags, res.Cycles, res.IPC(), res.PeakLive, res.ResultValue)
	}

	fmt.Println("\nMore tags per block buy parallelism at the cost of live state —")
	fmt.Println("the paper's central tradeoff, safe at any setting >= 2 (Theorems 1 & 2).")
}
