package seqdf

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/prog"
)

// allocsSrc's loop body takes every evaluator path: a classed load and
// store, a branch-local let, a let in the loop body, a select and a call.
const allocsSrc = `program "allocs" entry main
mem a[16]

func twice(x) {
  return x + x
}

func main(n) {
  loop "L" carry (i = 0, acc = 0) while i < n {
    let v = a[i % 16]@m
    if v < 3 {
      let w = twice(v)
      acc = acc + w
    } else {
      acc = acc + select(v > 4, v, 1)
    }
    store@m a[(i + 1) % 16] = (acc + i) % 7
    i = i + 1
  }
  return acc
}
`

// TestRunAllocsFlatInTripCount checks that the reference interpreter
// allocates nothing per dynamic instruction: prog.Run allocates as much at
// 10 loop iterations as at 10,000, under no cost model and under the seqdf
// model. It builds the model as Run does, minus Run's result formatting,
// whose fmt buffer pool the race detector drains at random.
func TestRunAllocsFlatInTripCount(t *testing.T) {
	p := prog.MustParse(allocsSrc)
	if err := prog.Check(p); err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name  string
		model func() prog.CostModel
	}{
		{"no model", func() prog.CostModel { return nil }},
		{"seqdf", func() prog.CostModel {
			return &model{width: 128, ipcHist: make([]int64, 129), liveTrace: metrics.NewLiveTrace(-1)}
		}},
	}
	for _, m := range models {
		// Each run starts from a fresh image: the program's path, and so
		// the frames it calls for, depends on what memory holds.
		run := func(n int64) error {
			_, err := prog.Run(p, prog.DefaultImage(p), prog.RunConfig{Args: []int64{n}, Model: m.model()})
			return err
		}
		allocs := func(n int64) float64 {
			if err := run(n); err != nil {
				t.Fatalf("%s, %d iterations: %v", m.name, n, err)
			}
			return testing.AllocsPerRun(5, func() { _ = run(n) })
		}
		if short, long := allocs(10), allocs(10_000); short != long {
			t.Errorf("%s: a run allocates %v times at 10 iterations and %v at 10,000", m.name, short, long)
		}
	}
}
