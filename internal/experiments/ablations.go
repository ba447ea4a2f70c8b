package experiments

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/lookup"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/report"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/unionfind"
)

// MaskingResult compares clustering with and without repeat masking
// (the Section 9.1 ablation: unmasked Drosophila took >24 h instead of
// 3.1 h and put ~50 % of fragments into one cluster).
type MaskingResult struct {
	Masked   MaskingRun
	Unmasked MaskingRun
}

// MaskingRun is one arm of the masking ablation.
type MaskingRun struct {
	Aligned        int64
	Generated      int64
	MaxClusterFrac float64
	ModeledSeconds float64
}

// Masking runs the repeat-masking ablation on a WGS workload.
func Masking(opt Options) MaskingResult {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 400))
	// A genome with guaranteed high-copy repeats at every scale: a
	// young family (near-identical copies merge everything they touch
	// into one cluster) and an old, diverged family (copy-pair
	// overlaps hover at the identity cutoff, so unmasked they burn
	// alignments without merging — the paper's 3.1 h → >24 h blowup).
	genomeLen := opt.Scale / 4
	copiesOf := func(share float64, length int) int {
		c := share * float64(genomeLen) / float64(length)
		if c < 15 {
			c = 15
		}
		return int(c)
	}
	g := simulate.NewGenome(rng, "abl", simulate.GenomeConfig{
		Length: genomeLen,
		Repeats: []simulate.RepeatFamily{
			{Length: 800, Copies: copiesOf(0.15, 800), Divergence: 0.01},
			{Length: 600, Copies: copiesOf(0.15, 600), Divergence: 0.07},
		},
	})
	reads := simulate.SampleWGS(rng, g, 8.0, simulate.DefaultReadConfig(), "abl")

	db := knownRepeatDB(g, 16)
	cfg := clusterConfig()

	run := func(mask bool) MaskingRun {
		var frags []*seq.Fragment
		for _, f := range reads {
			cp := &seq.Fragment{Name: f.Name, Bases: append([]byte(nil), f.Bases...), Origin: f.Origin}
			if mask {
				db.Mask(cp.Bases)
			}
			frags = append(frags, cp)
		}
		store := seq.NewStore(frags)
		res, ph := mustParallel(store, cfg, opt.parallelConfig(9))
		sum := res.Summarize()
		return MaskingRun{
			Aligned:        res.Stats.Aligned,
			Generated:      res.Stats.Generated,
			MaxClusterFrac: sum.MaxFraction,
			ModeledSeconds: ph.GST.MaxModeled + ph.Cluster.MaxModeled,
		}
	}
	out := MaskingResult{Masked: run(true), Unmasked: run(false)}

	tb := report.NewTable("Section 9.1 ablation — repeat masking", "arm", "generated", "aligned", "largest cluster", "modeled time")
	tb.AddRow("masked", report.Int(out.Masked.Generated), report.Int(out.Masked.Aligned),
		report.Pct(out.Masked.MaxClusterFrac), report.Seconds(out.Masked.ModeledSeconds))
	tb.AddRow("unmasked", report.Int(out.Unmasked.Generated), report.Int(out.Unmasked.Aligned),
		report.Pct(out.Unmasked.MaxClusterFrac), report.Seconds(out.Unmasked.ModeledSeconds))
	tb.Fprint(opt.Out)
	return out
}

// FilterResult compares the suffix-tree maximal-match filter with the
// conventional w-mer lookup-table filter (Section 2 vs Section 5), and
// the duplicate-elimination variant.
type FilterResult struct {
	TreePairs       int64 // maximal-match pairs (no dedup)
	TreePairsDedup  int64 // with duplicate elimination
	LookupPairs     int64 // fixed-length w-mer pairs
	OrderedAligned  int64 // alignments with decreasing-length order
	ShuffledAligned int64 // alignments with arbitrary order
	OrderedSavings  float64
	ShuffledSavings float64
}

// Filter runs the filter and ordering ablations on one maize-like
// input: (a) the lookup table generates a pair once per shared w-mer —
// l−w+1 times for a length-l match — where the tree generates it once
// per maximal match; (b) processing pairs in decreasing match order
// saves more alignments than arbitrary order.
func Filter(opt Options) FilterResult {
	opt = opt.withDefaults()
	frags := maizeReads(opt.Seed+500, opt.Scale/2)
	store := seq.NewStore(frags)
	cfg := clusterConfig()
	var out FilterResult

	tree := cluster.BuildSerialTree(store, cfg)
	var pairs []pairgen.Pair
	st := pairgen.Generate(tree, pairgen.Config{Psi: cfg.Psi, NumFragments: store.N()},
		func(p pairgen.Pair) bool {
			pairs = append(pairs, p)
			return true
		})
	out.TreePairs = st.Emitted

	stD := pairgen.Generate(tree, pairgen.Config{
		Psi: cfg.Psi, NumFragments: store.N(), DuplicateElimination: true,
	}, func(pairgen.Pair) bool { return true })
	out.TreePairsDedup = stD.Emitted

	acc := func(sid int32) []byte { return store.Seq(int(sid)) }
	stL := lookup.Generate(acc, store.NumSeqs(), lookup.Config{W: cfg.Psi, NumFragments: store.N()},
		func(pairgen.Pair) bool { return true })
	out.LookupPairs = stL.Emitted

	// Ordering ablation: same pair set, ordered vs shuffled processing.
	process := func(ps []pairgen.Pair) int64 {
		uf := unionfind.New(store.N())
		var aligned int64
		n := int32(store.N())
		for _, p := range ps {
			fa, fb := int(p.ASid%n), int(p.BSid%n)
			if uf.Same(fa, fb) {
				continue
			}
			aligned++
			if ok, _ := cluster.AlignPair(store, p, cfg); ok {
				uf.Union(fa, fb)
			}
		}
		return aligned
	}
	out.OrderedAligned = process(pairs)
	shuffled := append([]pairgen.Pair(nil), pairs...)
	rng := rand.New(rand.NewSource(opt.Seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	out.ShuffledAligned = process(shuffled)
	if n := int64(len(pairs)); n > 0 {
		out.OrderedSavings = float64(n-out.OrderedAligned) / float64(n)
		out.ShuffledSavings = float64(n-out.ShuffledAligned) / float64(n)
	}

	tb := report.NewTable("Ablation — pair filters and processing order", "metric", "value")
	tb.AddRow("maximal-match pairs (suffix tree)", report.Int(out.TreePairs))
	tb.AddRow("  with duplicate elimination", report.Int(out.TreePairsDedup))
	tb.AddRow("fixed w-mer pairs (lookup table)", report.Int(out.LookupPairs))
	tb.AddRow("aligned, decreasing-length order", report.Int(out.OrderedAligned))
	tb.AddRow("aligned, arbitrary order", report.Int(out.ShuffledAligned))
	tb.AddRow("savings, ordered", report.Pct(out.OrderedSavings))
	tb.AddRow("savings, shuffled", report.Pct(out.ShuffledSavings))
	tb.Fprint(opt.Out)
	return out
}

// CommResult compares communication strategies: the customized staged
// Alltoallv vs the direct one (peak buffer bytes during GST
// construction, Section 6), and synchronous vs eager worker sends
// (master-side peak buffer, Section 7.2's MPI_Ssend discussion).
type CommResult struct {
	DirectPeakBytes int
	StagedPeakBytes int
	EagerMasterPeak int
	SsendMasterPeak int
}

// Comm runs the communication ablations.
func Comm(opt Options) CommResult {
	opt = opt.withDefaults()
	frags := maizeReads(opt.Seed+600, opt.Scale/2)
	store := seq.NewStore(frags)
	cfg := clusterConfig()
	p := opt.Ranks[len(opt.Ranks)-1]
	var out CommResult

	peak := func(staged bool) int {
		stats := par.Run(par.DefaultConfig(p), func(c *par.Comm) {
			pgst.Build(c, store, pgst.Config{
				W: cfg.W, MinLen: cfg.Psi, Staged: staged, Seed: opt.Seed,
			})
		})
		return par.Summarize(stats).PeakBufBytes
	}
	out.DirectPeakBytes = peak(false)
	out.StagedPeakBytes = peak(true)

	// The master's mailbox high-water mark is what Ssend protects
	// against overflowing (Section 7.2's MPI_Ssend discussion).
	masterPeak := func(ssend bool) int {
		pcfg := opt.parallelConfig(p + 1)
		pcfg.UseSsend = ssend
		_, ph := mustParallel(store, cfg, pcfg)
		return ph.MasterPeakBufBytes
	}
	out.EagerMasterPeak = masterPeak(false)
	out.SsendMasterPeak = masterPeak(true)

	tb := report.NewTable("Ablation — communication strategies", "metric", "bytes")
	tb.AddRow("Alltoallv direct, peak buffer", report.Int(int64(out.DirectPeakBytes)))
	tb.AddRow("Alltoallv staged (customized), peak buffer", report.Int(int64(out.StagedPeakBytes)))
	tb.AddRow("eager worker sends, master peak buffer", report.Int(int64(out.EagerMasterPeak)))
	tb.AddRow("Ssend worker sends, master peak buffer", report.Int(int64(out.SsendMasterPeak)))
	tb.Fprint(opt.Out)
	return out
}

// GranularityResult holds the Section 7.2 granularity-scaling study:
// does growing the dispatch batch with the machine keep the master's
// message frequency (and hence its availability) flat?
type GranularityResult struct {
	Ranks       []int
	FixedMsgs   []int
	ScaledMsgs  []int
	FixedAvail  []float64
	ScaledAvail []float64
}

// Granularity compares fixed dispatch granularity against the paper's
// proposed batch-size scaling across the rank sweep.
func Granularity(opt Options) GranularityResult {
	opt = opt.withDefaults()
	frags := maizeReads(opt.Seed+700, opt.Scale/2)
	store := seq.NewStore(frags)
	cfg := clusterConfig()
	var out GranularityResult
	for _, p := range opt.Ranks {
		out.Ranks = append(out.Ranks, p)
		for _, scaled := range []bool{false, true} {
			pcfg := opt.parallelConfig(p + 1)
			pcfg.ScaleBatchWithWorkers = scaled
			_, ph := mustParallel(store, cfg, pcfg)
			if scaled {
				out.ScaledMsgs = append(out.ScaledMsgs, ph.MasterMsgsRecv)
				out.ScaledAvail = append(out.ScaledAvail, ph.MasterAvailability)
			} else {
				out.FixedMsgs = append(out.FixedMsgs, ph.MasterMsgsRecv)
				out.FixedAvail = append(out.FixedAvail, ph.MasterAvailability)
			}
		}
	}
	tb := report.NewTable(
		"Section 7.2 — dispatch granularity vs master load",
		"procs", "msgs (fixed b)", "msgs (scaled b)", "avail (fixed)", "avail (scaled)")
	for i, p := range out.Ranks {
		tb.AddRow(report.Int(int64(p)), report.Int(int64(out.FixedMsgs[i])),
			report.Int(int64(out.ScaledMsgs[i])),
			report.Pct(out.FixedAvail[i]), report.Pct(out.ScaledAvail[i]))
	}
	tb.Fprint(opt.Out)
	return out
}
