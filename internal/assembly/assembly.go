// Package assembly is the serial assembler of the cluster-then-assemble
// framework — the role CAP3 plays in the paper (Section 8). Each
// cluster is assembled independently with a conventional
// overlap–layout–consensus procedure at a stringency higher than
// clustering used, so inconsistent (repeat-induced) overlaps that
// transitive clustering tolerated are detected and the cluster splits
// into multiple contigs. Clusters are trivially farmed across
// goroutines, the paper's "multiple instances of a serial assembler in
// parallel".
package assembly

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/align"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// Config parameterizes per-cluster assembly.
type Config struct {
	// W is the seed length for within-cluster overlap detection.
	W int
	// Band is the anchored-alignment band half-width.
	Band int
	// Scoring for overlap alignments.
	Scoring align.Scoring
	// Criteria is the stringent assembly overlap criterion.
	Criteria align.Criteria
	// OffsetSlack tolerates indel drift when checking layout
	// consistency (bases).
	OffsetSlack int
	// MaxSeedBucket skips seed w-mers occurring more often than this
	// within a cluster — the usual guard against quadratic seeding in
	// repeat-dense clusters (0 = default 64).
	MaxSeedBucket int
}

// DefaultConfig mirrors conventional assembler stringency.
func DefaultConfig() Config {
	return Config{
		W:             14,
		Band:          align.DefaultBand,
		Scoring:       align.DefaultScoring(),
		Criteria:      align.AssemblyCriteria(),
		OffsetSlack:   24,
		MaxSeedBucket: 64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.W == 0 {
		c.W = d.W
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
	if c.OffsetSlack == 0 {
		c.OffsetSlack = d.OffsetSlack
	}
	if c.MaxSeedBucket == 0 {
		c.MaxSeedBucket = d.MaxSeedBucket
	}
	return c
}

// Placement locates one read within a contig.
type Placement struct {
	Frag    int  // fragment ID
	Offset  int  // start column in the contig
	Reverse bool // read is reverse-complemented in the contig
}

// Contig is one assembled contiguous sequence.
type Contig struct {
	Bases []byte
	Reads []Placement
	Depth float64 // mean read coverage
}

// overlap is an accepted pairwise overlap between oriented reads.
type overlap struct {
	a, b   int  // indices into the cluster member list
	oa, ob bool // reverse flags of the aligned orientations
	diag   int  // startA − startB in the oriented frames
	score  int
}

// AssembleCluster assembles the reads of one cluster (fragment IDs
// into the store) and returns its contigs. Fragments that overlap
// nothing at assembly stringency come back as single-read contigs.
func AssembleCluster(store seq.Seqs, members []int, cfg Config) []Contig {
	cfg = cfg.withDefaults()
	if len(members) == 0 {
		return nil
	}
	seqs := make([][]byte, len(members))
	rcs := make([][]byte, len(members))
	for i, fid := range members {
		seqs[i] = store.Seq(fid)
		rcs[i] = seq.ReverseComplement(seqs[i])
	}
	get := func(i int, rev bool) []byte {
		if rev {
			return rcs[i]
		}
		return seqs[i]
	}

	lengths := make([]int, len(members))
	for i := range seqs {
		lengths[i] = len(seqs[i])
	}
	overlaps := findOverlaps(seqs, rcs, cfg)
	layout := buildLayout(len(members), lengths, overlaps, cfg)

	var contigs []Contig
	for _, group := range layout {
		contigs = append(contigs, consensus(group, members, get, cfg))
	}
	sort.Slice(contigs, func(i, j int) bool { return len(contigs[i].Bases) > len(contigs[j].Bases) })
	return contigs
}

// AssembleAll farms clusters across `workers` goroutines and returns
// per-cluster contigs in input order.
func AssembleAll(store seq.Seqs, clusters [][]int, cfg Config, workers int) [][]Contig {
	if workers < 1 {
		workers = 1
	}
	out := make([][]Contig, len(clusters))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = AssembleCluster(store, clusters[i], cfg)
			}
		}()
	}
	for i := range clusters {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// findOverlaps detects pairwise overlaps within the cluster by seeding
// on shared w-mers, extending each maximal match once, and running the
// banded anchored overlap test from it.
//
// The seed index is one key-sorted slice, the GST's own SortKeyed: a
// w-mer at pos of read r's strand s (0 forward, 1 reverse complement)
// is suffix (2r+s, pos). Buckets are equal-key runs in ascending key
// order and each is in (read, strand, pos) order, so the pair loop
// meets anchors in a fixed order. That order decides which of two
// equal-score overlaps wins, and contigs must be bit-reproducible.
func findOverlaps(seqs, rcs [][]byte, cfg Config) []overlap {
	w := cfg.W
	n := 0
	for _, s := range seqs {
		n += max(len(s)-w+1, 0)
	}
	ks := make([]suffixtree.Keyed, 0, 2*n)
	for i := range seqs {
		for strand, s := range [2][]byte{seqs[i], rcs[i]} {
			sid := int32(2*i + strand)
			seq.EachKmer(s, w, func(pos int, km seq.Kmer) {
				ks = append(ks, suffixtree.Keyed{Key: km, Suf: suffixtree.Suffix{Sid: sid, Pos: int32(pos)}})
			})
		}
	}
	suffixtree.SortKeyed(ks)

	type pairKey struct {
		a, b int32
		ob   bool
	}
	best := make(map[pairKey]overlap)
	// The maximal matches already extended, as [lo, hi) in a, per (a, b,
	// orientation, diagonal). A seed inside one of them would extend to
	// it again and anchor the same alignment, so it is skipped before
	// any byte is compared.
	type diagKey struct {
		a, b int32
		ob   bool
		diag int32
	}
	extended := make(map[diagKey][][2]int32)

	suffixtree.EachRun(ks, func(lo, hi int) {
		occs := ks[lo:hi]
		if cfg.MaxSeedBucket > 0 && len(occs) > cfg.MaxSeedBucket {
			return // repeat-saturated seed
		}
		for x := 0; x < len(occs); x++ {
			for y := x + 1; y < len(occs); y++ {
				// (sid, pos) order puts the lower read first.
				sx, sy := occs[x].Suf, occs[y].Suf
				ra, rb := sx.Sid>>1, sy.Sid>>1
				if ra == rb {
					continue
				}
				apos, bpos, rev := int(sx.Pos), int(sy.Pos), sy.Sid&1 == 1
				// Canonical orientation: the lower read forward.
				if sx.Sid&1 == 1 {
					// Mirror both orientations.
					apos = len(seqs[ra]) - apos - w
					bpos = len(seqs[rb]) - bpos - w
					rev = !rev
				}
				dk := diagKey{ra, rb, rev, int32(apos - bpos)}
				if slices.ContainsFunc(extended[dk], func(m [2]int32) bool {
					return int(m[0]) <= apos && apos+w <= int(m[1])
				}) {
					continue
				}
				sa, sb := seqs[ra], seqs[rb]
				if rev {
					sb = rcs[rb]
				}
				// Extend the seed to a maximal match.
				i, j := apos, bpos
				for i > 0 && j > 0 && sa[i-1] == sb[j-1] && seq.IsBase(sa[i-1]) {
					i--
					j--
				}
				e, f := apos+w, bpos+w
				for e < len(sa) && f < len(sb) && sa[e] == sb[f] && seq.IsBase(sa[e]) {
					e++
					f++
				}
				extended[dk] = append(extended[dk], [2]int32{int32(i), int32(e)})

				res, ok := align.AnchoredOverlap(sa, sb, i, j, e-i, cfg.Band, cfg.Scoring)
				if !ok || !cfg.Criteria.Accept(res) {
					continue
				}
				k := pairKey{ra, rb, rev}
				ov := overlap{
					a: int(ra), b: int(rb),
					oa: false, ob: rev,
					diag:  res.AStart - res.BStart,
					score: res.Score,
				}
				if cur, exists := best[k]; !exists || ov.score > cur.score {
					best[k] = ov
				}
			}
		}
	})
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

// placed is one read's position within a growing layout.
type placed struct {
	read int
	off  int
	rev  bool
}

// buildLayout greedily merges reads into consistent layouts, skipping
// overlaps that contradict established placements (the inconsistency
// detection that splits repeat-joined clusters).
func buildLayout(n int, lengths []int, overlaps []overlap, cfg Config) [][]placed {
	groupOf := make([]int, n)
	groups := make(map[int][]placed, n)
	for i := 0; i < n; i++ {
		groupOf[i] = i
		groups[i] = []placed{{read: i, off: 0, rev: false}}
	}
	find := func(r int) int { return groupOf[r] }
	placementOf := func(g int, r int) *placed {
		for i := range groups[g] {
			if groups[g][i].read == r {
				return &groups[g][i]
			}
		}
		return nil
	}

	for _, ov := range overlaps {
		ga, gb := find(ov.a), find(ov.b)
		pa := placementOf(ga, ov.a)
		pb := placementOf(gb, ov.b)

		// Express the overlap in pa's frame.
		obEff, diagEff := ov.ob, ov.diag
		if pa.rev != ov.oa {
			// Mirror the overlap so a's orientation matches its layout.
			obEff = !obEff
			diagEff = mirrorDiag(ov, lengths)
		}
		wantOffB := pa.off + diagEff
		wantRevB := obEff

		if ga == gb {
			// Consistency check only.
			if pb.rev != wantRevB || abs(pb.off-wantOffB) > cfg.OffsetSlack {
				continue // inconsistent (repeat-induced): skip
			}
			continue
		}
		// Merge gb into ga with the transform that sends pb to
		// (wantOffB, wantRevB).
		var moved []placed
		if pb.rev == wantRevB {
			delta := wantOffB - pb.off
			for _, p := range groups[gb] {
				p.off += delta
				moved = append(moved, p)
			}
		} else {
			// Flip gb: reflect offsets about the group's extent.
			ext := 0
			for _, p := range groups[gb] {
				if end := p.off + lenOf(lengths, p.read); end > ext {
					ext = end
				}
			}
			flip := func(p placed) placed {
				return placed{
					read: p.read,
					off:  ext - (p.off + lenOf(lengths, p.read)),
					rev:  !p.rev,
				}
			}
			fb := flip(*pb)
			delta := wantOffB - fb.off
			for _, p := range groups[gb] {
				f := flip(p)
				f.off += delta
				moved = append(moved, f)
			}
		}
		groups[ga] = append(groups[ga], moved...)
		for _, p := range moved {
			groupOf[p.read] = ga
		}
		delete(groups, gb)
	}

	var out [][]placed
	var keys []int
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Ints(keys)
	for _, g := range keys {
		out = append(out, groups[g])
	}
	return out
}

func lenOf(lengths []int, read int) int { return lengths[read] }

func mirrorDiag(ov overlap, lengths []int) int {
	// Mirrored frame: both reads reverse-complemented; the overlap
	// region's start coordinates reflect about the read ends. The diag
	// in the mirrored frame needs the aligned end coordinates, which
	// we approximate from the read lengths and the original diag:
	// startA' − startB' = (la − endA) − (lb − endB) ≈ (la − lb) −
	// (startA − startB) when the overlap spans to the boundaries.
	return lenOf(lengths, ov.a) - lenOf(lengths, ov.b) - ov.diag
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
