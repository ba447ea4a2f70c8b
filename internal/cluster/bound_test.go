package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/pairgen"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// streamPairs returns every pair pairgen generates for the store under
// cfg, in stream order: the pairs serial clustering would align with no
// union–find skip.
func streamPairs(st seq.Seqs, cfg Config) []pairgen.Pair {
	cfg = cfg.withDefaults()
	var pairs []pairgen.Pair
	pgCfg := pairgen.Config{Psi: cfg.Psi, NumFragments: st.N(), DuplicateElimination: cfg.DuplicateElimination}
	pairgen.Generate(BuildSerialTree(st, cfg), pgCfg, func(p pairgen.Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	return pairs
}

// TestAlignPairMatchesUnfilteredAlignment: on every generated pair of a
// repeat-rich maize-like input and of a plain shotgun input, AlignPair
// (identity bound first) decides as the full anchored alignment plus
// Accept does. The zero Criteria is the alignment without the bound.
func TestAlignPairMatchesUnfilteredAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	maize := simulate.MaizeLike(rng, 40_000).Genome
	plain := simulate.NewGenome(rng, "plain", simulate.GenomeConfig{Length: 20_000})
	for _, in := range []struct {
		name  string
		frags []*seq.Fragment
	}{
		{"maize", simulate.SampleWGS(rng, maize, 2, simulate.DefaultReadConfig(), "mz")},
		{"shotgun", simulate.SampleWGS(rng, plain, 4, simulate.DefaultReadConfig(), "wgs")},
	} {
		st := seq.NewStore(in.frags)
		cfg := DefaultConfig()
		pairs := streamPairs(st, cfg)
		accepted := 0
		for _, p := range pairs {
			got, _ := AlignPair(st, p, cfg)
			a, b := st.Seq(int(p.ASid)), st.Seq(int(p.BSid))
			res, ok := align.AnchoredOverlap(a, b, int(p.APos), int(p.BPos), int(p.MatchLen), cfg.Band, cfg.Scoring, align.Criteria{})
			if want := ok && cfg.Criteria.Accept(res); got != want {
				t.Fatalf("%s: pair %+v: AlignPair %v, alignment + Accept %v (%+v)", in.name, p, got, want, res)
			}
			if got {
				accepted++
			}
		}
		t.Logf("%s: %d pairs, %d accepted", in.name, len(pairs), accepted)
		if accepted == 0 || accepted == len(pairs) {
			t.Errorf("%s: %d of %d pairs accepted; the input tests only one decision", in.name, accepted, len(pairs))
		}
	}
}
