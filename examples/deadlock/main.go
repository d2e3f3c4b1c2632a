// Deadlock demonstration (the paper's Fig. 11 and Sec. V): bounding a
// single *global* tag space deadlocks — the machine eagerly hands all tags
// to outer-loop work that then waits on inner loops which can no longer
// get a tag — while TYR's *local* tag spaces complete the same program
// with just two tags per concurrent block.
//
//	go run ./examples/deadlock
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
)

func main() {
	app := apps.Dmv(64, 64, 3)
	fmt.Printf("workload: %s — %s\n\n", app.Name, app.Description)

	g, err := app.Tagged()
	if err != nil {
		log.Fatal(err)
	}

	// Naive unordered dataflow with a bounded global tag pool.
	for _, tags := range []int{4, 8, 16} {
		res, err := core.Run(g, app.NewImage(), core.Config{
			Policy:     core.PolicyGlobalBounded,
			GlobalTags: tags,
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.Deadlocked {
			fmt.Printf("unordered, %3d global tags: DEADLOCK at cycle %d — %d tokens stuck, %d allocates starved\n",
				tags, res.Deadlock.Cycle, res.Deadlock.LiveTokens, len(res.Deadlock.PendingAllocs))
			for _, sp := range res.Deadlock.Spaces {
				fmt.Printf("    starved %s block %q: %d allocate(s) waiting, %d of %d pool tags in use\n",
					sp.Kind, sp.Block, sp.Starved, sp.InUse, sp.Tags)
			}
			for i, pa := range res.Deadlock.PendingAllocs {
				if i >= 3 {
					fmt.Printf("    ... and %d more\n", len(res.Deadlock.PendingAllocs)-3)
					break
				}
				fmt.Printf("    starved: %s (wants a tag for block %q)\n", pa.Label, pa.Space)
			}
		} else {
			fmt.Printf("unordered, %3d global tags: completed in %d cycles\n", tags, res.Cycles)
		}
	}

	// The same graph under TYR's local tag spaces: allocate's readiness
	// protocol and the tail-recursion reserve guarantee forward progress
	// with two tags per block (Theorem 1).
	fmt.Println()
	for _, tags := range []int{2, 4} {
		res, err := core.Run(g, app.NewImage(), core.Config{
			Policy:       core.PolicyTyr,
			TagsPerBlock: tags,
			Sanitize:     true,
		})
		if err != nil {
			log.Fatal(err)
		}
		status := "completed"
		if !res.Completed {
			status = "FAILED"
		}
		fmt.Printf("TYR, %d tags per local tag space: %s in %d cycles (peak %d live tokens)\n",
			tags, status, res.Cycles, res.PeakLive)
	}

	// How many tags would naive unordered need? Ask the unlimited run.
	res, err := core.Run(g, app.NewImage(), core.Config{Policy: core.PolicyGlobalUnlimited})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(for reference, unlimited unordered dataflow held up to %d contexts at once —\n"+
		" the global pool would need that many tags, and the requirement grows with input size)\n",
		res.PeakTags)
}
