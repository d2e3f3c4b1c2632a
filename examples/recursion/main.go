// Recursion under bounded tags (the paper's Sec. V and VIII-B): general
// recursion is inherently unbounded, so TYR's Theorem 1 assumes it has
// been transformed into tail recursion with an explicitly managed stack.
// This example runs fib(n) as a stack-driven worklist and shows the
// payoff: the logical call tree grows exponentially with n, yet the
// number of live *tokens* stays flat — the unbounded state lives in
// memory, where it belongs.
//
//	go run ./examples/recursion
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/metrics"
)

func main() {
	fmt.Println("fib(n) via explicit work stack, on TYR with 4 tags per block:")
	fmt.Println()
	tb := &metrics.Table{Headers: []string{
		"n", "result", "call-tree leaves", "cycles", "peak live tokens",
	}}
	for _, n := range []int{6, 10, 14, 18} {
		app := apps.FibStack(n)
		g, err := app.Tagged()
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(g, app.NewImage(), core.Config{
			Policy:       core.PolicyTyr,
			TagsPerBlock: 4,
			Sanitize:     true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatalf("n=%d deadlocked: %v", n, res.Deadlock)
		}
		if err := app.Check(nil, res.ResultValue); err != nil {
			log.Fatalf("n=%d: %v", n, err)
		}
		tb.Add(fmt.Sprint(n), fmt.Sprint(res.ResultValue),
			fmt.Sprint(res.ResultValue), // one leaf per unit of fib(n)
			metrics.FormatCount(res.Cycles),
			metrics.FormatCount(res.PeakLive))
	}
	fmt.Print(tb.String())
	fmt.Println("\nWork grows exponentially (leaves = fib(n)) while peak live tokens stay")
	fmt.Println("flat: Theorem 2's bound holds because the recursion's state was moved")
	fmt.Println("into the explicitly managed stack region.")
}
