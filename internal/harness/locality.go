package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/metrics"
)

// The locality experiment measures the paper's central claim from the
// memory system's point of view: taming parallelism (TYR's bounded local
// tag pools) bounds the set of loop instances in flight, which bounds the
// data those instances touch concurrently — the working set — which a
// finite cache can actually hold. Unlimited unordered dataflow exposes
// maximal parallelism, interleaves accesses from every live instance, and
// thrashes the same cache. The experiment sweeps tag budget x cache
// capacity across all seven kernels and reports per-level miss rates and
// AMAT from the cycle-integrated hierarchy model (internal/cache).

// LocalityPoint is one (app, row, capacity) observation.
type LocalityPoint struct {
	App      string
	Row      string // "unordered" or "tyr@<budget>"
	L1Words  int    // total L1 capacity in words (the sweep axis)
	L1Miss   float64
	L2Miss   float64
	AMAT     float64
	Cycles   int64
	PeakLive int64
}

// LocalityData holds the tag-budget x cache-capacity locality sweep.
type LocalityData struct {
	Apps       []string
	Rows       []string // "unordered" first, then "tyr@<b>" per budget
	Budgets    []int    // TYR tags-per-block sweep, tightest first
	Capacities []int    // L1 capacity in words, smallest first
	DefaultCap int      // the paper-default L1 capacity (always swept)
	Points     []LocalityPoint

	// Claim: at the default capacity, kernels where the tightest TYR
	// budget's L1 miss rate is strictly lower than / equal to / higher
	// than unlimited unordered's.
	Wins, Ties, Losses int
}

// Point returns the observation for (app, row, l1Words), or nil.
func (d *LocalityData) Point(app, row string, l1Words int) *LocalityPoint {
	for i := range d.Points {
		p := &d.Points[i]
		if p.App == app && p.Row == row && p.L1Words == l1Words {
			return p
		}
	}
	return nil
}

// localityCaches builds the capacity sweep: the default hierarchy scaled
// by 1/4, 1, and 4 in set count at both levels (associativity, line size,
// and latencies held constant, so only capacity moves).
func localityCaches() []cache.Config {
	var out []cache.Config
	for _, f := range []int{4, 1} {
		c := cache.DefaultConfig()
		c.L1.Sets /= f
		c.L2.Sets /= f
		out = append(out, c)
	}
	big := cache.DefaultConfig()
	big.L1.Sets *= 4
	big.L2.Sets *= 4
	return append(out, big)
}

// Locality runs the sweep. The TYR budgets are {8, cfg.Tags}: the paper
// default and a deliberately tight pool, because the locality claim is
// monotone in the bound — the harder parallelism is tamed, the smaller
// the working set.
func Locality(cfg ExpConfig) (*LocalityData, string, error) {
	cfg = cfg.withDefaults()
	budgets := []int{8}
	if cfg.Tags != budgets[0] {
		budgets = append(budgets, cfg.Tags)
	}
	sort.Ints(budgets)

	d := &LocalityData{Budgets: budgets, Rows: []string{SysUnordered}}
	for _, b := range budgets {
		d.Rows = append(d.Rows, fmt.Sprintf("tyr@%d", b))
	}
	caches := localityCaches()
	for _, c := range caches {
		d.Capacities = append(d.Capacities, c.L1.Words())
	}
	d.DefaultCap = cache.DefaultConfig().L1.Words()

	// One cell per point; each point is filled from the run at its index.
	var cells []cell
	for _, app := range apps.Suite(cfg.Scale) {
		d.Apps = append(d.Apps, app.Name)
		for _, row := range d.Rows {
			for _, cc := range caches {
				sc := cfg.sys()
				sc.Cache = &cc
				sys := SysUnordered
				if b, ok := strings.CutPrefix(row, "tyr@"); ok {
					sys = SysTyr
					fmt.Sscan(b, &sc.Tags)
				}
				cells = append(cells, cell{app, sys, sc})
				d.Points = append(d.Points, LocalityPoint{App: app.Name, Row: row, L1Words: cc.L1.Words()})
			}
		}
	}
	runs, err := runCells("locality", cells)
	if err != nil {
		return nil, "", err
	}
	for i, rs := range runs {
		p := &d.Points[i]
		if rs.Cache == nil {
			return nil, "", fmt.Errorf("locality: %s/%s produced no cache stats", p.App, p.Row)
		}
		p.L1Miss, p.L2Miss, p.AMAT = rs.Cache.L1.MissRate, rs.Cache.L2.MissRate, rs.Cache.AMAT
		p.Cycles, p.PeakLive = rs.Cycles, rs.PeakLive
	}

	tight := d.Rows[1] // tyr@<smallest budget>
	for _, app := range d.Apps {
		un := d.Point(app, SysUnordered, d.DefaultCap)
		ty := d.Point(app, tight, d.DefaultCap)
		switch {
		case ty.L1Miss < un.L1Miss:
			d.Wins++
		case ty.L1Miss == un.L1Miss:
			d.Ties++
		default:
			d.Losses++
		}
	}

	return d, d.render(tight), nil
}

func (d *LocalityData) render(tight string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Locality: cache behavior under tamed vs unlimited parallelism\n"+
		"(L1 miss rate / AMAT per kernel at the default %dw L1)\n\n", d.DefaultCap)

	tb := &metrics.Table{Headers: append([]string{"kernel"}, d.Rows...)}
	for _, app := range d.Apps {
		row := []string{app}
		for _, r := range d.Rows {
			p := d.Point(app, r, d.DefaultCap)
			row = append(row, fmt.Sprintf("%5.1f%% / %.1f", p.L1Miss*100, p.AMAT))
		}
		tb.Add(row...)
	}
	b.WriteString(tb.String())

	b.WriteString("\nworking-set curve: mean L1 miss rate across kernels vs L1 capacity\n")
	ct := &metrics.Table{Headers: append([]string{"L1 words"}, d.Rows...)}
	for _, cap := range d.Capacities {
		row := []string{fmt.Sprint(cap)}
		for _, r := range d.Rows {
			var sum float64
			for _, app := range d.Apps {
				sum += d.Point(app, r, cap).L1Miss
			}
			frac := sum / float64(len(d.Apps))
			row = append(row, fmt.Sprintf("%5.1f%% %s", frac*100, metrics.Bar(frac, 12)))
		}
		ct.Add(row...)
	}
	b.WriteString(ct.String())

	fmt.Fprintf(&b, "\nAt the default capacity, %s beats unlimited unordered on L1 miss rate\n"+
		"on %d of %d kernels (%d ties): bounding the tag pools bounds the set of\n"+
		"loop instances in flight, so their combined footprint fits the cache\n"+
		"where unlimited parallelism interleaves every iteration's accesses and\n"+
		"thrashes it.\n", tight, d.Wins, len(d.Apps), d.Ties)
	return b.String()
}
