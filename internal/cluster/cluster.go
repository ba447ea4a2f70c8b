// Package cluster implements the paper's clustering framework: the
// greedy, alignment-avoiding clustering strategy of Section 4 (Fig. 3)
// in a serial driver, and the single-master / multiple-worker parallel
// implementation of Section 7 (Figs. 6–8) on the par runtime.
//
// Two fragments join a cluster when a suffix–prefix alignment anchored
// at a shared maximal match passes the (relaxed) overlap criterion;
// clusters are the transitive closure of accepted overlaps. Pairs are
// processed in decreasing maximal-match order, and a pair is aligned
// only if its fragments are currently in different clusters — the
// heuristic that skips 44–65 % of alignments in the paper's
// experiments while provably never changing the final clustering
// (order-independence of transitive closure).
package cluster

import (
	"time"

	"repro/internal/align"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/pairgen"
	"repro/internal/pgst"
	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/unionfind"
)

// Modeled per-operation costs (see pgst for the time-scale rationale).
const (
	costCell    = 4e-9  // per banded-DP cell
	costPair    = 60e-9 // per promising pair generated or scanned
	costUF      = 40e-9 // per union-find operation
	costPerMsgC = 1e-6  // master bookkeeping per report processed
)

// Config holds the algorithmic parameters shared by the serial and
// parallel drivers.
type Config struct {
	// Psi is the minimum maximal-match length for a promising pair.
	Psi int
	// W is the GST bucket prefix length; must be ≤ Psi (default:
	// min(Psi, 10)).
	W int
	// Band is the half-width of the anchored alignment band.
	Band int
	// Scoring for overlap alignments.
	Scoring align.Scoring
	// Criteria accepts or rejects an overlap (the relaxed clustering
	// criterion of Section 3).
	Criteria align.Criteria
	// DuplicateElimination enables fragment-level lsets (Section 5).
	DuplicateElimination bool
	// MemBudget, when positive, bounds the GST: construction never
	// holds more than roughly this many bytes of tree state, building,
	// generating and dropping contiguous key-range segments; without
	// it the whole forest is one segment (pgst.Config.SpillBytes).
	// Pair order changes across segments, so Stats like
	// Skipped/Aligned shift, but the partition — the transitive
	// closure of accepted overlaps — is provably identical (order
	// independence, Section 4).
	MemBudget int64
}

// DefaultConfig returns parameters matching the paper's regime for
// ~500–800 bp reads.
func DefaultConfig() Config {
	return Config{
		Psi:                  20,
		W:                    10,
		Band:                 align.DefaultBand,
		Scoring:              align.DefaultScoring(),
		Criteria:             align.ClusterCriteria(),
		DuplicateElimination: true,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Psi == 0 {
		c.Psi = d.Psi
	}
	if c.W == 0 {
		c.W = d.W
		if c.W > c.Psi {
			c.W = c.Psi
		}
	}
	if c.Band == 0 {
		c.Band = d.Band
	}
	if c.Scoring == (align.Scoring{}) {
		c.Scoring = d.Scoring
	}
	if c.Criteria == (align.Criteria{}) {
		c.Criteria = d.Criteria
	}
	if c.W > c.Psi {
		panic("cluster: W must be ≤ Psi")
	}
	return c
}

// Stats counts clustering activity (the Table 1 quantities).
type Stats struct {
	Generated int64 // promising pairs generated
	Aligned   int64 // pairs whose alignment was computed
	Accepted  int64 // aligned pairs passing the overlap criterion
	Skipped   int64 // pairs not aligned: fragments already co-clustered
	Merges    int64 // cluster merges (≤ Accepted)

	WorkersLost int64 // workers the master declared dead (fault runs)
	Requeued    int64 // leased pairs requeued after a worker death

	GSTSeconds     float64 // modeled time of GST construction
	ClusterSeconds float64 // modeled time of the clustering phase
	WallSeconds    float64 // real host time, diagnostic
}

// SavingsFraction returns the fraction of generated pairs never
// aligned (the last row of Table 1).
func (s Stats) SavingsFraction() float64 {
	if s.Generated == 0 {
		return 0
	}
	return float64(s.Generated-s.Aligned) / float64(s.Generated)
}

// Result is a completed clustering.
type Result struct {
	N     int
	UF    *unionfind.UF
	Stats Stats
}

// Clusters returns the multi-fragment clusters (each sorted ascending).
func (r *Result) Clusters() [][]int {
	var out [][]int
	for _, g := range r.UF.Groups() {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// Singletons returns fragments that clustered with nothing.
func (r *Result) Singletons() []int {
	var out []int
	for _, g := range r.UF.Groups() {
		if len(g) == 1 {
			out = append(out, g[0])
		}
	}
	return out
}

// Summary describes the cluster size distribution (Section 8 metrics).
type Summary struct {
	NumClusters   int // multi-fragment clusters
	NumSingletons int
	MaxSize       int
	MeanSize      float64 // over multi-fragment clusters
	MaxFraction   float64 // largest cluster / total fragments
}

// Summarize computes the Section 8 cluster statistics.
func (r *Result) Summarize() Summary {
	var s Summary
	total := 0
	for _, g := range r.UF.Groups() {
		if len(g) == 1 {
			s.NumSingletons++
			continue
		}
		s.NumClusters++
		total += len(g)
		if len(g) > s.MaxSize {
			s.MaxSize = len(g)
		}
	}
	if s.NumClusters > 0 {
		s.MeanSize = float64(total) / float64(s.NumClusters)
	}
	if r.N > 0 {
		s.MaxFraction = float64(s.MaxSize) / float64(r.N)
	}
	return s
}

// BuildSerialTree constructs the full GST for a store serially.
func BuildSerialTree(store seq.Seqs, cfg Config) (tree *suffixtree.Tree) {
	cfg = cfg.withDefaults()
	pgst.SweepSerial(store, pgst.Config{W: cfg.W, MinLen: cfg.Psi}, func(t *suffixtree.Tree) bool {
		tree = t
		return true
	})
	return tree
}

// AlignPair runs the anchored overlap test for one promising pair and
// reports acceptance plus the modeled DP cell count. The count is the
// full banded alignment's, whether or not the identity bound spared
// it, so the modeled clock does not depend on the bound.
func AlignPair(store seq.Seqs, p pairgen.Pair, cfg Config) (accepted bool, cells int64) {
	a := store.Seq(int(p.ASid))
	b := store.Seq(int(p.BSid))
	_, accepted = align.AnchoredOverlap(a, b, int(p.APos), int(p.BPos), int(p.MatchLen), cfg.Band, cfg.Scoring, cfg.Criteria)
	ext := int64(len(a) + len(b) - 2*int(p.MatchLen))
	if ext < 2 {
		ext = 2
	}
	cells = int64(2*cfg.Band+1) * ext
	return accepted, cells
}

// acceptOverlap is the one merge rule, applied by the serial driver and
// the parallel master alike to every pair whose alignment passed the
// overlap criterion: fragments fa and fb join one cluster. It reports
// whether two clusters merged.
func acceptOverlap(uf *unionfind.UF, st *Stats, fa, fb int) bool {
	st.Accepted++
	if !uf.Union(fa, fb) {
		return false
	}
	st.Merges++
	return true
}

// Serial clusters the store's fragments with the Fig. 3 strategy on a
// single rank. Its GST buckets and the first pass of pair generation
// are built on every core; alignments and merges run in pair order on
// the caller's goroutine.
func Serial(store seq.Seqs, cfg Config) *Result {
	cfg = cfg.withDefaults()
	start := time.Now()
	uf := unionfind.New(store.N())
	var st Stats
	n := int32(store.N())
	pgCfg := pairgen.Config{
		Psi:                  cfg.Psi,
		NumFragments:         store.N(),
		DuplicateElimination: cfg.DuplicateElimination,
	}
	process := func(p pairgen.Pair) bool {
		st.Generated++
		fa, fb := int(p.ASid%n), int(p.BSid%n)
		if uf.Same(fa, fb) {
			st.Skipped++
			return true
		}
		accepted, _ := AlignPair(store, p, cfg)
		st.Aligned++
		if accepted {
			acceptOverlap(uf, &st, fa, fb)
		}
		return true
	}
	// The sweep builds its segments on a goroutine of its own, labelled
	// gst, ahead of this one, which collects, emits and aligns their
	// pairs under the pairgen label, as par names the spans on a rank.
	// The pools either starts inherit its label.
	prof.ApplyLabels(0, obs.PhaseName(obs.PhasePairGen))
	pairgen.GenerateSweep(func(add func(*suffixtree.Tree), end func(float64) bool) bool {
		return pgst.Sweep(store, pgst.Config{W: cfg.W, MinLen: cfg.Psi, SpillBytes: cfg.MemBudget}, add, end)
	}, pgCfg, process)
	prof.ApplyLabels(0, obs.PhaseName(obs.PhaseCluster))
	st.WallSeconds = time.Since(start).Seconds()
	return &Result{N: store.N(), UF: uf, Stats: st}
}
