package experiments

import (
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/report"
	"repro/internal/seq"
)

// Fig5Point is one bar of Fig. 5: parallel GST construction time for
// one (input size, processors) cell, split into computation and
// communication.
type Fig5Point struct {
	InputBases  int
	Ranks       int
	CompSeconds float64 // modeled, slowest rank
	CommSeconds float64
	Total       float64
}

// Fig5Result holds both panels (two input sizes).
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5 reproduces Fig. 5: parallel GST construction run-times, broken
// into communication and computation, for two input sizes across the
// processor sweep. The paper's panels use 250 and 500 Mbp; here the
// small input is Options.Scale bases and the large input twice that.
//
// The comm/comp decomposition is read off the trace: every run is
// bracketed in a PhaseGST span per rank, and the bar heights are the
// slowest rank's span values. The numbers are identical to what
// par.Summarize reports (a rank's span starts at zero modeled time and
// ends at its final clocks), so enabling an external tracer changes
// nothing but retention.
func Fig5(opt Options) Fig5Result {
	opt = opt.withDefaults()
	var res Fig5Result
	cfg := clusterConfig()
	tr := obs.NewTracer(opt.Ranks[len(opt.Ranks)-1], 0)
	for i, size := range []int{opt.Scale, 2 * opt.Scale} {
		frags := maizeReads(opt.Seed+int64(i), size)
		store := seq.NewStore(frags)
		for _, p := range opt.Ranks {
			mark := tr.Mark()
			mcfg := par.DefaultConfig(p)
			mcfg.Trace = tr
			par.Run(mcfg, func(c *par.Comm) {
				c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGST, 0, 0)
				pgst.Build(c, store, pgst.Config{
					W:      cfg.W,
					MinLen: cfg.Psi,
					Seed:   opt.Seed,
				})
				c.TraceEvent(obs.EvPhaseExit, obs.PhaseGST, 0, 0)
			})
			pt := Fig5Point{InputBases: store.TotalBases(), Ranks: p}
			for _, s := range tr.SpansSince(mark) {
				if s.Phase != obs.PhaseGST {
					continue
				}
				if s.CompSeconds > pt.CompSeconds {
					pt.CompSeconds = s.CompSeconds
				}
				if s.CommSeconds > pt.CommSeconds {
					pt.CommSeconds = s.CommSeconds
				}
				if m := s.Modeled(); m > pt.Total {
					pt.Total = m
				}
			}
			res.Points = append(res.Points, pt)
		}
	}

	tb := report.NewTable(
		"Fig. 5 — parallel GST construction (modeled time, slowest rank)",
		"input (Mbp)", "procs", "comp", "comm", "total")
	for _, pt := range res.Points {
		tb.AddRow(report.Mbp(pt.InputBases), report.Int(int64(pt.Ranks)),
			report.Seconds(pt.CompSeconds), report.Seconds(pt.CommSeconds),
			report.Seconds(pt.Total))
	}
	tb.Fprint(opt.Out)
	return res
}
