package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
)

// UarchRow is one (app, policy) observation of hardware-implementation
// metrics.
type UarchRow struct {
	App               string
	Scheme            string
	PeakStorePerInstr int
	PeakLive          int64
	FramePct          float64 // fraction of tokens that never cross a transfer point
}

// UarchData holds the token-store implementation study.
type UarchData struct {
	Tags int
	Rows []UarchRow
}

// Uarch quantifies the paper's implementation argument (Problem #2 and
// Sec. VIII): the associative capacity a token store needs per static
// instruction is bounded by the local tag-space size under TYR but grows
// with input under unlimited unordered dataflow, and the vast majority of
// tokens never cross a transfer point — so a Monsoon-style explicit token
// store could index them by frame offset, no associative match needed.
func Uarch(cfg ExpConfig) (*UarchData, string, error) {
	cfg = cfg.withDefaults()
	d := &UarchData{Tags: cfg.Tags}
	suite := apps.Suite(cfg.Scale)
	var cells []cell
	for _, appName := range []string{"dmv", "dconv", "spmspm", "tc"} {
		app := apps.Find(suite, appName)
		for _, sys := range []string{SysTyr, SysUnordered} {
			cells = append(cells, cell{app, sys, cfg.sys()})
		}
	}
	runs, err := runCells("uarch", cells)
	if err != nil {
		return nil, "", err
	}
	for _, rs := range runs {
		framePct := 0.0
		if tot := rs.FrameTokens + rs.CrossTokens; tot > 0 {
			framePct = float64(rs.FrameTokens) / float64(tot)
		}
		d.Rows = append(d.Rows, UarchRow{
			App:               rs.App,
			Scheme:            rs.System,
			PeakStorePerInstr: rs.PeakStorePerInstr,
			PeakLive:          rs.PeakLive,
			FramePct:          framePct,
		})
	}

	tb := &metrics.Table{Headers: []string{
		"app", "scheme", "peak store entries/instr", "peak live", "frame-indexable tokens",
	}}
	for _, r := range d.Rows {
		tb.Add(r.App, r.Scheme, fmt.Sprint(r.PeakStorePerInstr),
			metrics.FormatCount(r.PeakLive), fmt.Sprintf("%.1f%%", r.FramePct*100))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Microarchitecture study: token-store requirements (Problem #2, Sec. VIII)\n\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nUnder TYR, no instruction ever holds more than %d waiting instances (the\n"+
		"local tag-space size), so a small per-PE store suffices; unlimited tags\n"+
		"need input-proportional associative capacity. Most tokens never cross a\n"+
		"transfer point, enabling Monsoon-style frame-offset indexing.\n", cfg.Tags)
	return d, b.String(), nil
}
