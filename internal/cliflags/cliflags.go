// Package cliflags registers the flag groups shared by the tyrsim, tyrc,
// and tyrexp CLIs, so every tool spells the same knob the same way and the
// values flow into the tyr-api/v1 request surface (internal/api) rather
// than tool-local ad-hoc structs.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/api"
)

// BatchList is the value of tyrexp bench's -batch: one or more lockstep
// batch widths to sweep. The zero value means "unset" — no batching.
type BatchList []int

func (b *BatchList) String() string {
	parts := make([]string, len(*b))
	for i, n := range *b {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// Set parses a comma-separated list of positive batch widths.
func (b *BatchList) Set(v string) error {
	var out []int
	for _, f := range strings.Split(v, ",") {
		f = strings.TrimSpace(f)
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return fmt.Errorf("batch width %q: want a positive integer", f)
		}
		out = append(out, n)
	}
	*b = out
	return nil
}

// Machine groups the system-selection flags: -width and -tags, plus
// -system when defSystem is non-empty.
type Machine struct {
	System string
	Width  int
	Tags   int
}

// RegisterMachine registers the machine group on fs. Tools that sweep all
// systems (tyrexp experiments) pass defSystem "" to get only -width/-tags.
func RegisterMachine(fs *flag.FlagSet, defSystem string) *Machine {
	m := &Machine{}
	if defSystem != "" {
		fs.StringVar(&m.System, "system", defSystem, "system: vN, seqdf, ordered, unordered, tyr")
	}
	fs.IntVar(&m.Width, "width", 128, "issue width")
	fs.IntVar(&m.Tags, "tags", 64, "TYR tags per local tag space")
	return m
}

// RegisterScale registers -scale with the given default.
func RegisterScale(fs *flag.FlagSet, def string) *string {
	return fs.String("scale", def, "input scale: tiny, small, medium")
}

// Cache groups the memory-hierarchy flags: -cache, -l1, -l2, -mem-lat,
// -mshrs. Any override implies -cache.
type Cache struct {
	Enable     bool
	L1, L2     string
	MemLatency int64
	MSHRs      int
}

// RegisterCache registers the cache group on fs.
func RegisterCache(fs *flag.FlagSet) *Cache {
	c := &Cache{}
	fs.BoolVar(&c.Enable, "cache", false, "route loads and stores through the default memory hierarchy")
	fs.StringVar(&c.L1, "l1", "", "L1 overrides as sets=N,ways=N,line=N,lat=N (implies -cache)")
	fs.StringVar(&c.L2, "l2", "", "L2 overrides as sets=N,ways=N,line=N,lat=N (implies -cache)")
	fs.Int64Var(&c.MemLatency, "mem-lat", 0, "memory latency behind L2 in cycles (implies -cache)")
	fs.IntVar(&c.MSHRs, "mshrs", 0, "outstanding-miss limit (implies -cache)")
	return c
}

// Spec converts the flags into the tyr-api/v1 cache spec: nil when no cache
// flag was used (ideal flat memory).
func (c *Cache) Spec() *api.CacheSpec {
	if !c.Enable && c.L1 == "" && c.L2 == "" && c.MemLatency == 0 && c.MSHRs == 0 {
		return nil
	}
	return &api.CacheSpec{L1: c.L1, L2: c.L2, MemLatency: c.MemLatency, MSHRs: c.MSHRs}
}

// Observe groups the observability flags shared by the CLIs: -trace PATH
// and -profile.
type Observe struct {
	TracePath string
	Profile   bool
}

// RegisterObserve registers the observability group on fs.
func RegisterObserve(fs *flag.FlagSet) *Observe {
	o := &Observe{}
	fs.StringVar(&o.TracePath, "trace", "", "record the event stream and write Chrome trace-event JSON to this path")
	fs.BoolVar(&o.Profile, "profile", false, "print the critical-path profile")
	return o
}

// Enabled reports whether any observability output was requested (and so a
// trace recorder must be attached to the run).
func (o *Observe) Enabled() bool { return o.TracePath != "" || o.Profile }
