package assembly

// The differential oracle for findOverlaps: the map-indexed detector
// the product used until the seed index became one key-sorted slice,
// kept only here. It re-extends the maximal match of every seed pair
// and deduplicates anchors afterwards, so its []overlap defines the
// anchors, the order they are tried in and the equal-score tie-breaks
// findOverlaps must reproduce exactly. Never call it from product code.

import (
	"sort"

	"repro/internal/align"
	"repro/internal/seq"
)

// referenceFindOverlaps is findOverlaps as it was before the seed index
// became one SortKeyed slice and each maximal match was extended once:
// a w-mer map walked in sorted key order, every seed pair extended, and
// a tried set over (a, b, i, j, orient).
func referenceFindOverlaps(seqs, rcs [][]byte, cfg Config) []overlap {
	type occ struct {
		read int32
		pos  int32
		rev  bool
	}
	index := make(map[seq.Kmer][]occ)
	for i, s := range seqs {
		seq.EachKmer(s, cfg.W, func(pos int, km seq.Kmer) {
			index[km] = append(index[km], occ{int32(i), int32(pos), false})
		})
		seq.EachKmer(rcs[i], cfg.W, func(pos int, km seq.Kmer) {
			index[km] = append(index[km], occ{int32(i), int32(pos), true})
		})
	}
	get := func(i int32, rev bool) []byte {
		if rev {
			return rcs[i]
		}
		return seqs[i]
	}

	type pairKey struct {
		a, b   int32
		oa, ob bool
	}
	best := make(map[pairKey]overlap)
	tried := make(map[[5]int32]bool) // anchor dedup: (a,b,apos,bpos,orient)

	// Iterate seeds in sorted order: map order would let equal-score
	// overlaps with different anchors win the best-map race differently
	// across runs, and contigs must be bit-reproducible.
	kms := make([]seq.Kmer, 0, len(index))
	for km := range index {
		kms = append(kms, km)
	}
	sort.Slice(kms, func(i, j int) bool { return kms[i] < kms[j] })
	for _, km := range kms {
		occs := index[km]
		if cfg.MaxSeedBucket > 0 && len(occs) > cfg.MaxSeedBucket {
			continue // repeat-saturated seed
		}
		for x := 0; x < len(occs); x++ {
			for y := x + 1; y < len(occs); y++ {
				oa, ob := occs[x], occs[y]
				if oa.read == ob.read {
					continue
				}
				if oa.read > ob.read {
					oa, ob = ob, oa
				}
				// Canonical orientation: the lower read forward.
				if oa.rev {
					// Mirror both orientations.
					oa = occ{oa.read, int32(len(seqs[oa.read])) - oa.pos - int32(cfg.W), false}
					ob = occ{ob.read, int32(len(seqs[ob.read])) - ob.pos - int32(cfg.W), !ob.rev}
					// mirrored positions refer to the opposite strands
					oa.rev = false
				}
				sa, sb := get(oa.read, oa.rev), get(ob.read, ob.rev)
				// Extend the seed to a maximal match.
				i, j := int(oa.pos), int(ob.pos)
				for i > 0 && j > 0 && sa[i-1] == sb[j-1] && seq.IsBase(sa[i-1]) {
					i--
					j--
				}
				e, f := int(oa.pos)+cfg.W, int(ob.pos)+cfg.W
				for e < len(sa) && f < len(sb) && sa[e] == sb[f] && seq.IsBase(sa[e]) {
					e++
					f++
				}
				orient := int32(0)
				if ob.rev {
					orient = 1
				}
				akey := [5]int32{oa.read, ob.read, int32(i), int32(j), orient}
				if tried[akey] {
					continue
				}
				tried[akey] = true
				// The zero Criteria accepts every alignment and skips
				// the identity bound: the oracle judges full alignments.
				res, ok := align.AnchoredOverlap(sa, sb, i, j, e-i, cfg.Band, cfg.Scoring, align.Criteria{})
				if !ok || !cfg.Criteria.Accept(res) {
					continue
				}
				k := pairKey{oa.read, ob.read, false, ob.rev}
				ov := overlap{
					a: int(oa.read), b: int(ob.read),
					oa: false, ob: ob.rev,
					diag:  res.AStart - res.BStart,
					score: res.Score,
				}
				if cur, exists := best[k]; !exists || ov.score > cur.score {
					best[k] = ov
				}
			}
		}
	}
	out := make([]overlap, 0, len(best))
	for _, ov := range best {
		out = append(out, ov)
	}
	// Deterministic greedy order: score desc, then stable key order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		if out[i].b != out[j].b {
			return out[i].b < out[j].b
		}
		return !out[i].ob && out[j].ob
	})
	return out
}
