package experiments

import (
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
// The bars are par.Summarize's maxima over one run's ranks: the
// largest modeled computation, the largest modeled communication and
// the largest sum of the two.
func Fig5(opt Options) Fig5Result {
	opt = opt.withDefaults()
	var res Fig5Result
	cfg := clusterConfig()
	for i, size := range []int{opt.Scale, 2 * opt.Scale} {
		frags := maizeReads(opt.Seed+int64(i), size)
		store := seq.NewStore(frags)
		for _, p := range opt.Ranks {
			agg := par.Summarize(par.Run(par.DefaultConfig(p), func(c *par.Comm) {
				pgst.Build(c, store, pgst.Config{
					W:      cfg.W,
					MinLen: cfg.Psi,
					Seed:   opt.Seed,
				})
			}))
			res.Points = append(res.Points, Fig5Point{
				InputBases:  store.TotalBases(),
				Ranks:       p,
				CompSeconds: agg.MaxComp,
				CommSeconds: agg.MaxComm,
				Total:       agg.MaxModeled,
			})
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
