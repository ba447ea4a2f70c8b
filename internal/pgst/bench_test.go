package pgst

import (
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/suffixtree"
)

// maizeStore is shaped like the maize_p4 benchmark workload's input: a
// 90 kbp repeat-rich maize-like genome shotgunned at 1.1×.
func maizeStore(seed int64) *seq.Store {
	rng := rand.New(rand.NewSource(seed))
	g := simulate.MaizeLike(rng, 90_000).Genome
	return seq.NewStore(simulate.SampleWGS(rng, g, 1.1, simulate.DefaultReadConfig(), "mz"))
}

var benchLocal *Local

// BenchmarkBuild times the resident distributed build at p = 4 in
// process, with clustering's parameters (W 10, ψ 20, rank 0 owning
// nothing), next to the one-segment serial sweep of the same store:
// the Go-level counterpart of the benchmark's pgst.build_p4_s and
// pgst.sweep_serial_s.
func BenchmarkBuild(b *testing.B) {
	st := maizeStore(1)
	cfg := Config{W: 10, MinLen: 20, FirstOwner: 1, Seed: 12345}
	b.Run("p4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			par.Run(par.DefaultConfig(4), func(c *par.Comm) {
				if l := Build(c, st, cfg); c.Rank() == 1 {
					benchLocal = l
				}
			})
		}
	})
	b.Run("sweep-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SweepSerial(st, cfg, func(*suffixtree.Tree) bool { return true })
		}
	})
}
