// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections 6.1, 7.2, 8, 9) on scaled-down
// synthetic workloads, plus the design-choice ablations DESIGN.md
// calls out. Each experiment returns structured results and renders
// the paper's corresponding table or data series; cmd/experiments and
// the root bench harness both drive these entry points.
//
// Scaling: the paper's runs use 0.25–1.25 Gbp on a 1024-node
// BlueGene/L. Here genome and read volumes shrink ~1000× and rank
// counts ~32×, while the dimensionless knobs (repeat fraction, read
// length, error rate, coverage, ψ relative to read length) stay at
// paper values, so ratio-shaped results — savings percentages,
// scaling slopes, cluster size distributions — are comparable.
package experiments

import (
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the base read volume in bases for the "small" input
	// (the paper's 250 Mbp point). Default 250,000.
	Scale int
	// Ranks is the processor sweep. Default {4, 8, 16, 32}.
	Ranks []int
	// Seed drives all synthetic data.
	Seed int64
	// Out receives rendered tables; nil discards them.
	Out io.Writer
	// Quick shrinks sweeps to CI-sized runs (used by FaultSweep).
	Quick bool
	// Metrics, when non-nil, receives the clustering metrics of every
	// parallel run (served live by cmd/experiments -obs-addr).
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 250000
	}
	if len(o.Ranks) == 0 {
		o.Ranks = []int{4, 8, 16, 32}
	}
	if o.Seed == 0 {
		o.Seed = 20060425 // IPDPS 2006
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// maizeData synthesizes a maize-like dataset whose total read length
// is close to targetBases.
func maizeData(seed int64, targetBases int) *simulate.MaizeData {
	rng := rand.New(rand.NewSource(seed))
	genomeLen := int(float64(targetBases) / 1.1)
	return simulate.MaizeLike(rng, genomeLen)
}

// maizeReads synthesizes a preprocessed maize-like read set whose
// total length is close to targetBases: trimmed, vector-screened, and
// masked against the *partial* known-repeat database (the long,
// characterized families only). The medium-sized families leak
// through, exactly as they did through the paper's screens ("even the
// small fraction of repetitive sequences that survive the initial
// screening is substantial", Section 2) — which is what drives
// Table 1's near-quadratic pair growth and its low accepted/aligned
// ratio.
func maizeReads(seed int64, targetBases int) []*seq.Fragment {
	m := maizeData(seed, targetBases)
	trim := preprocess.DefaultTrimConfig()
	trim.Vector = simulate.DefaultReadConfig().Vector
	out, _ := preprocess.Run(m.All(), preprocess.Config{
		Trim:    trim,
		Repeats: knownRepeatDBFamilies(m.Genome, 16, map[int]bool{0: true, 1: true}),
	})
	return out
}

// maskStatistically detects repeats from a fixed-coverage read sample
// and masks all reads, dropping those with too little usable
// sequence — the Section 9.1 procedure. genomeLen calibrates the
// sample coverage.
func maskStatistically(rng *rand.Rand, frags []*seq.Fragment, genomeLen int) []*seq.Fragment {
	return maskAndFilter(rng, frags, genomeLen, 16, 4, 100)
}

// mustParallel runs the parallel clustering engine with a
// configuration the experiment constructed itself; an error here is a
// harness bug, not an input condition, so it panics.
func mustParallel(store seq.Seqs, cfg cluster.Config, pcfg cluster.ParallelConfig) (*cluster.Result, cluster.PhaseStats) {
	res, ph, err := cluster.Parallel(store, cfg, pcfg)
	if err != nil {
		panic(err)
	}
	return res, ph
}

// parallelConfig returns a default p-rank parallel clustering
// configuration with the experiment's metrics installed.
func (o Options) parallelConfig(p int) cluster.ParallelConfig {
	pcfg := cluster.DefaultParallelConfig(p)
	pcfg.Metrics = o.Metrics
	return pcfg
}

// clusterConfig returns the clustering parameters used throughout the
// experiments: ψ = 20 as a paper-scale maximal-match cutoff for
// ~700 bp reads, bucket prefix w = 10.
func clusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Psi = 20
	cfg.W = 10
	return cfg
}
