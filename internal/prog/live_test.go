package prog

import (
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"
)

// recorder is a CostModel that records every Boundary call and digests
// every Instr call's class and ready time. Its Instr answers a ready time
// that depends on both, so the digest also pins how ready times flow
// through variables, merge-outs, calls and ordering classes.
type recorder struct {
	bounds []string
	instrs int
	digest hash.Hash64
}

var boundaryNames = [...]string{
	BoundaryLoopEnter: "loop{",
	BoundaryLoopIter:  "iter",
	BoundaryLoopExit:  "loop}",
	BoundaryCallEnter: "call{",
	BoundaryCallExit:  "call}",
}

func (m *recorder) Instr(class InstrClass, ready int64) int64 {
	m.instrs++
	fmt.Fprintf(m.digest, "%d:%d ", class, ready)
	return ready + 1 + int64(class)
}

func (m *recorder) Boundary(kind BoundaryKind, live int) {
	m.bounds = append(m.bounds, fmt.Sprintf("%s %d", boundaryNames[kind], live))
}

// liveSrc declares a variable in every way the live-binding count
// distinguishes: a branch-local let (t), a let in a loop body, which binds
// once per loop instance rather than once per iteration (sq), merge-outs
// that declare a fresh variable in a loop body (j, acc) or in the function
// (i, k) and one that rebinds an outer variable (s), a call inside a loop
// whose callee declares its own (x, y), and a loop that never iterates.
const liveSrc = `program "live" entry main
mem out[8]

func inc(x) {
  let y = x + 1
  return y
}

func main(n) {
  let s = 10
  if n > 0 {
    let t = n * 2
    store out[0] = t
  }
  loop "outer" carry (i = 0, s = s) while i < n {
    let sq = i * i
    loop "inner" carry (j = 0, acc = sq) while j < 2 {
      acc = acc + inc(j)
      j = j + 1
    }
    s = s + acc + j
    store@c out[i + 1] = out[i]@c + s
    i = i + 1
  }
  loop "zero" carry (k = 0) while k < 0 {
    let w = k
    k = k + 1
  }
  return s + i + k
}
`

// TestLiveAccounting pins the interpreter's live-binding count, which the
// vN and seqdf models read at every Boundary and Stats.MaxLiveVars
// reports, together with every instruction's ready time. The expected
// values were recorded from the map-scoped interpreter this one replaced.
func TestLiveAccounting(t *testing.T) {
	p := MustParse(liveSrc)
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n      int64
		ret    int64
		stats  Stats
		bounds []string
		digest uint64
		out    []int64
	}{
		{
			n:      0,
			ret:    10,
			stats:  Stats{DynInstrs: 8, ALU: 5, Branches: 3, MaxLiveVars: 5, MaxCallDepth: 1},
			bounds: []string{"call{ 1", "loop{ 4", "loop} 4", "loop{ 4", "loop} 4", "call} 4"},
			digest: 0x960d8a68fb74e799,
			out:    []int64{0, 0, 0, 0, 0, 0, 0, 0},
		},
		{
			n:   3,
			ret: 33,
			stats: Stats{DynInstrs: 82, ALU: 54, Loads: 3, Stores: 4, Branches: 15, Calls: 6,
				LoopIters: 9, MaxLiveVars: 13, MaxCallDepth: 2},
			bounds: []string{
				"call{ 1", "loop{ 4",
				// outer iteration 0: the inner loop, then its merge-out
				// declares j and acc in the outer body
				"loop{ 7", "call{ 8", "call} 9", "iter 7", "call{ 8", "call} 9", "iter 7", "loop} 7",
				"iter 7",
				// outer iterations 1 and 2: sq, j and acc are already bound
				"loop{ 9", "call{ 10", "call} 11", "iter 9", "call{ 10", "call} 11", "iter 9", "loop} 9",
				"iter 7",
				"loop{ 9", "call{ 10", "call} 11", "iter 9", "call{ 10", "call} 11", "iter 9", "loop} 9",
				"iter 7",
				"loop} 7",
				// the zero-trip loop: k only
				"loop{ 4", "loop} 4",
				"call} 4",
			},
			digest: 0xa9853da1b714f3d,
			out:    []int64{6, 21, 42, 72, 0, 0, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint("n=", tc.n), func(t *testing.T) {
			m := &recorder{digest: fnv.New64a()}
			im := DefaultImage(p)
			res, err := Run(p, im, RunConfig{Args: []int64{tc.n}, Model: m})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ret != tc.ret || res.Stats != tc.stats {
				t.Errorf("ret %d, stats %+v; want %d, %+v", res.Ret, res.Stats, tc.ret, tc.stats)
			}
			if !slices.Equal(m.bounds, tc.bounds) {
				t.Errorf("boundaries\n got %q\nwant %q", m.bounds, tc.bounds)
			}
			if got := m.digest.Sum64(); m.instrs != int(tc.stats.DynInstrs) || got != tc.digest {
				t.Errorf("%d Instr calls digest to %#x, want %d calls and %#x", m.instrs, got, tc.stats.DynInstrs, tc.digest)
			}
			if got := im.WordsByName("out"); !slices.Equal(got, tc.out) {
				t.Errorf("out = %v, want %v", got, tc.out)
			}
		})
	}
}
