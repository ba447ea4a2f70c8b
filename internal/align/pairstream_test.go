package align_test

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/pairgen"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// BenchmarkAlignPair times cluster.AlignPair over every pair pairgen
// generates for one maize-like shotgun input (90 kbp, 1.1× coverage,
// as the maize benchmark workload draws it), in stream order and with
// no union–find skip. It reports pairs/s and bound_rejected, the share
// of pairs the identity bound rejects before any alignment. The
// unfiltered variant runs the same pairs through the alignment and
// Accept alone, which is the "before" of the bound on any host.
func BenchmarkAlignPair(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := simulate.MaizeLike(rng, 90_000).Genome
	st := seq.NewStore(simulate.SampleWGS(rng, g, 1.1, simulate.DefaultReadConfig(), "mz"))
	cfg := cluster.DefaultConfig()
	var pairs []pairgen.Pair
	pgCfg := pairgen.Config{Psi: cfg.Psi, NumFragments: st.N(), DuplicateElimination: cfg.DuplicateElimination}
	pairgen.Generate(cluster.BuildSerialTree(st, cfg), pgCfg, func(p pairgen.Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	anchor := func(p pairgen.Pair) (a, b []byte, apos, bpos, mlen int) {
		return st.Seq(int(p.ASid)), st.Seq(int(p.BSid)), int(p.APos), int(p.BPos), int(p.MatchLen)
	}
	bounded := 0
	for _, p := range pairs {
		a, bb, apos, bpos, mlen := anchor(p)
		if align.BoundRejects(a, bb, apos, bpos, mlen, cfg.Band, cfg.Criteria) {
			bounded++
		}
	}
	for _, bc := range []struct {
		name string
		fn   func(p pairgen.Pair) bool
	}{
		{"filtered", func(p pairgen.Pair) bool {
			ok, _ := cluster.AlignPair(st, p, cfg)
			return ok
		}},
		{"unfiltered", func(p pairgen.Pair) bool {
			a, bb, apos, bpos, mlen := anchor(p)
			res, ok := align.AnchoredOverlap(a, bb, apos, bpos, mlen, cfg.Band, cfg.Scoring, align.Criteria{})
			return ok && cfg.Criteria.Accept(res)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					bc.fn(p)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
			b.ReportMetric(float64(bounded)/float64(len(pairs)), "bound_rejected")
		})
	}
}
