package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/api"
	"repro/internal/harness"
)

// workload is one traffic mix. Its ops are drawn from a fixed template list
// (kernel x system) in rounds: every round is a seeded permutation of the
// whole list, so any whole number of rounds does the same work whatever the
// seed, and only the order (and, for inline sources, the constants) changes.
type workload struct {
	name string
	why  string
	// serve workloads go to tyrd over loopback HTTP; the others call the
	// simulator library in-process.
	serve bool
	// source workloads send inline programs (sourceKernels) instead of
	// suite kernels, each op with constants of its own.
	source  bool
	scale   string
	kernels []string
	systems []string
	// cache attaches cache.DefaultConfig() to every run.
	cache bool
	// tail is the latency percentile reported as latency_tail_ms, taken
	// per chunk. On serve-small-mix p99 falls among the slowest template's
	// runs of a chunk; on the sim workload p90 falls between two templates
	// of near-equal length, where p95 would swing between dconv's and dmm's.
	tail float64
	// warmRounds run before measuring (they also fix each template's
	// reference cycle count); replayRounds are replayed by the traced run.
	warmRounds, replayRounds int
	// chunkRounds is how many rounds make one chunk of the measured phase
	// (about 2 s on the reference host; a whole pass on the sim workload).
	// Time metrics are medians over chunks.
	chunkRounds int
}

var (
	suiteKernels  = []string{"dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc"}
	sourceKernels = []string{"dotproduct", "collatz"}
)

// workloads lists every workload in the order -workload all runs them.
var workloads = []workload{
	{
		name:    "serve-small-mix",
		why:     "all 7 small kernels x 5 systems through tyrd; the engine cycle loops dominate and the graph LRU always hits",
		serve:   true,
		scale:   "small",
		kernels: suiteKernels, systems: harness.Systems,
		tail: 0.99, warmRounds: 1, replayRounds: 2, chunkRounds: 4,
	},
	{
		name:    "serve-tiny-hot",
		why:     "7 tiny kernels on tyr through tyrd; runs last milliseconds, so decode, suite builds, LRU and JSON encode show",
		serve:   true,
		scale:   "tiny",
		kernels: suiteKernels, systems: []string{harness.SysTyr},
		tail: 0.99, warmRounds: 10, replayRounds: 50, chunkRounds: 100,
	},
	{
		name:    "serve-source-cold",
		why:     "distinct inline programs on tyr and ordered; every request misses the graph LRU and pays parse, oracle and compile",
		serve:   true,
		source:  true,
		kernels: sourceKernels, systems: []string{harness.SysTyr, harness.SysOrdered},
		tail: 0.99, warmRounds: 10, replayRounds: 50, chunkRounds: 180,
	},
	{
		name:    "sim-medium-cache",
		why:     "medium suite x 5 systems in-process with the cache model, no server or tracer; engine and memory model do all the work",
		scale:   "medium",
		kernels: suiteKernels, systems: harness.Systems,
		cache: true,
		tail:  0.90, warmRounds: 1, replayRounds: 1, chunkRounds: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to tiny kernels, one warm-up round and a replay
// of about 64 ops (with fewer, one pause decides the reconciliation),
// keeping every code path it exercises.
func (w workload) smoke() workload {
	if !w.source {
		w.scale = "tiny"
	}
	w.warmRounds, w.chunkRounds = 1, 1
	w.replayRounds = (64 + w.roundLen() - 1) / w.roundLen()
	return w
}

// template is one (kernel, system) cell of a workload.
type template struct{ kernel, system string }

func (w workload) templates() []template {
	ts := make([]template, 0, len(w.kernels)*len(w.systems))
	for _, k := range w.kernels {
		for _, s := range w.systems {
			ts = append(ts, template{k, s})
		}
	}
	return ts
}

func (w workload) roundLen() int { return len(w.kernels) * len(w.systems) }

func (w workload) chunkLen() int { return w.chunkRounds * w.roundLen() }

// op is one generated request.
type op struct {
	// key names the template; every op of one template must simulate the
	// same number of cycles.
	key    string
	kernel string
	system string
	// body is the tyr-api/v1 request: what tyrd receives, and what the
	// traced run decodes.
	body []byte
}

// op generates op i of the workload's sequence for seed. It depends on
// nothing else, so any client can generate any op.
func (w workload) op(seed uint64, i int) op {
	n := w.roundLen()
	perm := permutation(seed, uint64(i/n), n)
	return w.opFor(w.templates()[perm[i%n]], seed, i)
}

// coldOp is the first request of every cold start: the first template,
// whatever the seed, so set-up time does not depend on the permutation.
func (w workload) coldOp(seed uint64) op {
	return w.opFor(w.templates()[0], seed, 0)
}

func (w workload) opFor(t template, seed uint64, i int) op {
	req := api.Request{System: t.system}
	if w.source {
		req.Source = sourceText(t.kernel, seed, i)
	} else {
		req.App, req.Scale = t.kernel, w.scale
	}
	if w.cache {
		req.Cache = &api.CacheSpec{}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // api.Request always marshals
	}
	return op{key: t.kernel + "/" + t.system, kernel: t.kernel, system: t.system, body: body}
}

// sourceText is a variant of examples/lang/dotproduct.tyr or collatz.tyr
// whose constants are unique to op i: no two ops share a compiled graph, but
// every variant runs the same control flow, and so the same cycle count.
func sourceText(kernel string, seed uint64, i int) string {
	r := splitmix(seed ^ splitmix(uint64(i)+0x51ed))
	// k1 differs for every i; the products below stay far from overflow.
	k1 := int64(i)*1009 + int64(r%1009) + 1
	k2 := int64((r>>32)%1000003) + 1
	switch kernel {
	case "dotproduct":
		return fmt.Sprintf(`program "dotproduct" entry main
mem a[64]
mem b[64]

func fill(n) {
  loop "fill" carry (i = 0) while i < n {
    store@v a[i] = i %% 7 + %d
    store@v b[i] = i %% 5 + %d
    i = i + 1
  }
  return 0
}

func main() {
  do fill(64)
  loop "dot" carry (i = 0, acc = 0) while i < 64 {
    acc = acc + a[i]@v * b[i]@v
    i = i + 1
  }
  return acc
}
`, k1, k2)
	case "collatz":
		return fmt.Sprintf(`program "collatz" entry main

func chain(n0) {
  loop "chain" carry (n = n0, steps = 0) while n != 1 {
    if n %% 2 == 0 {
      n = n / 2
    } else {
      n = 3 * n + 1
    }
    steps = steps + 1
  }
  return steps
}

func main() {
  loop "scan" carry (i = 1, best = 0) while i < 40 {
    best = max(best, chain(i))
    i = i + 1
  }
  return best + %d
}
`, k1)
	}
	panic("unknown source kernel " + kernel)
}

// splitmix is the SplitMix64 mixer: the benchmark's only source of
// randomness, so sequences stay identical across Go releases.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// permutation returns the seeded Fisher-Yates permutation of [0, n) used
// by round r.
func permutation(seed, r uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := splitmix(seed ^ splitmix(r))
	for i := n - 1; i > 0; i-- {
		s = splitmix(s)
		j := int(s % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
