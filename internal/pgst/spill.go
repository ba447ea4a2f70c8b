// Segment sweeps: how every GST other than the distributed resident
// build is constructed. A positive Config.SpillBytes is the out-of-core
// mode; without a budget the whole range is one segment, which is the
// serial tree.
//
// Bucket-by-w-prefix already makes the tree a forest of independent
// subtrees, so nothing ever requires the whole tree in memory: pair
// generation is a per-bucket computation (Section 5). The spilling
// build therefore never materializes a rank's full forest. Instead it
// partitions the key space into contiguous *segments* sized so one
// segment's suffixes fit the byte budget (estimated from a streaming
// key histogram), and the consumer sweeps: build one segment's forest
// from a filtered re-enumeration of the store, generate its pairs,
// drop it, move on. Combined with the disk-backed sequence store the
// resident set is O(budget + cache), independent of input size.
//
// The sweep is also the one fault-recovery path: a survivor whose
// redistribution a death severed sweeps its own range, and a dead
// rank's range is swept by whichever rank adopts it during clustering.
// The union of segment forests carries exactly the suffixes of a
// monolithic build, and each bucket lands whole in exactly one segment,
// so the forest union — and therefore the generated pair set — is
// identical.
package pgst

import (
	"slices"

	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

const (
	// spillBytesPerSuffix estimates the resident bytes one suffix costs
	// while its segment is being built and generated: the keyed record
	// (24), its leaf slot (12), tree nodes (~45: 24 each, under two per
	// suffix) and pair-generation lset cells (~15). The in-place builder
	// adds one class byte and one Suffix per suffix of the largest bucket;
	// the key sort holds a second keyed record per suffix while it runs,
	// before any node exists.
	spillBytesPerSuffix = 96
	// spillMaxBinBits caps the segment-planning histogram at 16K bins
	// (128 KiB of counters) regardless of W.
	spillMaxBinBits = 14
)

// spillBinBits returns the histogram resolution for prefix length w.
func spillBinBits(w int) uint {
	bits := 2 * w
	if bits > spillMaxBinBits {
		bits = spillMaxBinBits
	}
	return uint(bits)
}

// spillBinShift maps a key to its histogram bin: bins are contiguous,
// order-preserving ranges of the packed key space.
func spillBinShift(w int) uint { return uint(2*w) - spillBinBits(w) }

// spillSegment is a contiguous histogram-bin range [loBin, hiBin).
type spillSegment struct{ loBin, hiBin int }

// contains reports whether key falls in the segment.
func (g spillSegment) contains(key seq.Kmer, shift uint) bool {
	bin := int(key >> shift)
	return bin >= g.loBin && bin < g.hiBin
}

// planSpillSegments greedily packs histogram bins into segments whose
// estimated bytes stay under budget. A single bin denser than the
// whole budget still forms its own segment — the bin is the planning
// granule, so the budget is honored up to one bin's excess (documented
// in DESIGN.md §15; raise W or the budget if a single 2w-prefix
// dominates the input).
func planSpillSegments(hist []int64, budget int64) []spillSegment {
	maxSuf := budget / spillBytesPerSuffix
	if maxSuf < 1 {
		maxSuf = 1
	}
	var segs []spillSegment
	lo := 0
	var acc int64
	for b := 0; b < len(hist); b++ {
		if acc > 0 && acc+hist[b] > maxSuf {
			segs = append(segs, spillSegment{lo, b})
			lo, acc = b, 0
		}
		acc += hist[b]
	}
	if acc > 0 {
		segs = append(segs, spillSegment{lo, len(hist)})
	}
	return segs
}

// buildFiltered re-enumerates every suffix of the store, keeps those
// whose key passes keep (nil: all), and builds their buckets into ib —
// one segment of a sweep. Returns the modeled compute cost.
func buildFiltered(ib *suffixtree.IncrementalBuilder, st seq.Seqs, cfg Config, table *seqTable, keep func(seq.Kmer) bool) float64 {
	var mine []suffixtree.Keyed
	chars := suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, keep,
		func(k suffixtree.Keyed) { mine = append(mine, k) })
	before := ib.Work()
	ib.AddKeyed(table.Seq, mine)
	return float64(chars)*costChar +
		float64(len(mine))*(costSuf+log2f(len(mine))*costSort) +
		float64(ib.Work()-before)*costChar
}

// sweepFiltered yields one forest per segment of the keys passing own
// (nil: all), building and dropping them in turn, each with the modeled
// cost of building it — the sweep runs wherever its consumer pulls it,
// so charging that cost is the consumer's business. With a byte budget
// the segments come from a histogram pass, whose scan the first segment
// pays for (an empty range yields one empty forest to carry it);
// without one the whole range is a single segment. Returns false if
// yield stopped the sweep.
func sweepFiltered(st seq.Seqs, cfg Config, own func(seq.Kmer) bool, yield func(*suffixtree.Tree, float64) bool) bool {
	keeps := []func(seq.Kmer) bool{own}
	var planCost float64
	if cfg.SpillBytes > 0 {
		shift := spillBinShift(cfg.W)
		hist := make([]int64, 1<<spillBinBits(cfg.W))
		chars := suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, own,
			func(k suffixtree.Keyed) { hist[k.Key>>shift]++ })
		planCost = float64(chars) * costChar
		segs := planSpillSegments(hist, cfg.SpillBytes)
		if len(segs) == 0 {
			// An empty range still paid for the scan that found it empty.
			return yield(&suffixtree.Tree{W: cfg.W}, planCost)
		}
		keeps = keeps[:0]
		for _, sg := range segs {
			keeps = append(keeps, func(k seq.Kmer) bool {
				return sg.contains(k, shift) && (own == nil || own(k))
			})
		}
	}
	table := newStoreTable(st)
	// One builder for every segment: its per-sequence table of last
	// masked bytes is filled once per sweep, not once per segment.
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
	for _, keep := range keeps {
		cost := buildFiltered(ib, st, cfg, table, keep) + planCost
		planCost = 0
		if !yield(ib.TakeTree(), cost) {
			return false
		}
	}
	return true
}

// SweepSerial builds the store's full GST in bounded segments, calling
// yield with each segment's forest in ascending key order; the forest
// is dropped after yield returns. The union of yielded forests is the
// serial tree, which is what a sweep without a budget yields whole —
// consume-and-drop is what makes serial clustering run in
// O(SpillBytes) tree memory.
func SweepSerial(st seq.Seqs, cfg Config, yield func(*suffixtree.Tree) bool) {
	sweepFiltered(st, cfg.withDefaults(), nil, func(t *suffixtree.Tree, _ float64) bool { return yield(t) })
}

// Forests is the one way a rank's GST reaches a consumer: it calls
// yield with each forest of the buckets the splitter partition assigned
// to owner rank r, and the modeled compute cost of building it. This
// rank's own range of a resident build is the tree Build left resident,
// already paid for. Anything else — any range of a spilling build, the
// own range of a rank whose redistribution a death severed, a dead
// rank's range during adoption — is swept from the store: bounded
// segments under Cfg.SpillBytes, one segment without a budget, each
// forest dropped after yield returns. Returns false if yield stopped
// the sweep.
func (l *Local) Forests(st seq.Seqs, r int, yield func(*suffixtree.Tree, float64) bool) bool {
	if l.tree != nil && r == l.rank {
		return yield(l.tree, 0)
	}
	return sweepFiltered(st, l.Cfg, ownedBy(l.Splitters, l.Cfg.FirstOwner, r), yield)
}

// sampleOwnerKeys draws perRank evenly spaced suffix keys from owner
// rank me's fragment range in two streaming passes (count, then
// collect) — the spilling substitute for sampling the materialized
// enumeration. Returns sorted keys and the characters examined.
func sampleOwnerKeys(st seq.Seqs, bounds []int, me int, cfg Config, perRank int) ([]seq.Kmer, int64) {
	var cnt int64
	chars := scanOwner(st, bounds, me, cfg, nil, func(suffixtree.Keyed) { cnt++ })
	if cnt == 0 {
		return nil, chars
	}
	if int64(perRank) > cnt {
		perRank = int(cnt)
	}
	keys := make([]seq.Kmer, 0, perRank)
	var idx, next int64
	step := cnt / int64(perRank)
	chars += scanOwner(st, bounds, me, cfg, nil, func(k suffixtree.Keyed) {
		if idx == next && len(keys) < perRank {
			keys = append(keys, k.Key)
			next += step
		}
		idx++
	})
	slices.Sort(keys)
	return keys, chars
}

// buildSpill is Build's spilling mode: agree on splitters from
// streamed samples, then return immediately — no enumeration is
// retained, no suffixes are exchanged, no tree is resident. Each rank
// sweeps its own key range (and any it adopts) lazily via Forests;
// every rank reads the shared store directly, so the redistribution and
// fragment-fetch collectives of the in-memory path have nothing to move.
func buildSpill(c *par.Comm, st seq.Seqs, cfg Config, bounds []int, owners int) *Local {
	var samples []suffixtree.Keyed
	if me := c.Rank() - cfg.FirstOwner; me >= 0 {
		keys, chars := sampleOwnerKeys(st, bounds, me, cfg, 64)
		c.ChargeCompute(float64(chars) * costChar)
		for _, k := range keys {
			samples = append(samples, suffixtree.Keyed{Key: k})
		}
	}
	return &Local{rank: c.Rank(), Splitters: chooseSplitters(c, samples, owners, cfg), Cfg: cfg}
}
