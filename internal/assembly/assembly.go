// Package assembly is the serial assembler of the cluster-then-assemble
// framework — the role CAP3 plays in the paper (Section 8). Each
// cluster is assembled independently with a conventional
// overlap–layout–consensus procedure at a stringency higher than
// clustering used, so inconsistent (repeat-induced) overlaps that
// transitive clustering tolerated are detected and the cluster splits
// into multiple contigs. Clusters are farmed across goroutines, the
// paper's "multiple instances of a serial assembler in parallel", and
// one cluster also uses every core: its anchor alignments and its
// consensus fits run on a pool of GOMAXPROCS goroutines and are folded
// in a fixed order, so the contigs are the same bytes on any number of
// cores.
package assembly

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/pool"
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
	return assemble(store, members, cfg, new(atomic.Bool))
}

// assemble is AssembleCluster with a stop flag: once stop is set it
// aligns no further anchor and fits no further read, and returns nil
// within one batch.
func assemble(store seq.Seqs, members []int, cfg Config, stop *atomic.Bool) []Contig {
	cfg = cfg.withDefaults()
	if len(members) == 0 {
		return nil
	}
	seqs := make([][]byte, len(members))
	rcs := make([][]byte, len(members))
	for i, fid := range members {
		seqs[i] = store.Seq(fid)
		rcs[i] = store.Seq(fid + store.N())
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
	overlaps := findOverlaps(seqs, rcs, cfg, stop)
	layout := buildLayout(len(members), lengths, overlaps, cfg)

	var contigs []Contig
	for _, group := range layout {
		contigs = append(contigs, consensus(group, members, get, cfg, stop))
	}
	if stop.Load() {
		return nil
	}
	sort.Slice(contigs, func(i, j int) bool { return len(contigs[i].Bases) > len(contigs[j].Bases) })
	return contigs
}

// batchSize bounds the anchors held between the walk and the fold, so
// the pool's extra memory is a constant, not a multiple of the
// cluster's anchor count.
const batchSize = 256

// minParallel is the smallest batch handed to goroutines; a smaller one
// runs inline.
const minParallel = 8

// AssembleAll farms clusters across `workers` goroutines and returns
// per-cluster contigs in input order.
func AssembleAll(store seq.Seqs, clusters [][]int, cfg Config, workers int) [][]Contig {
	out := make([][]Contig, len(clusters))
	farm(len(clusters), workers, func(i int) { out[i] = AssembleCluster(store, clusters[i], cfg) })
	return out
}

// farm runs do(0..n-1) on `workers` goroutines (at least one), each
// taking the next index as it frees up, so one large cluster does not
// hold back the small ones behind it.
func farm(n, workers int, do func(i int)) {
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// anchor is one maximal match the seed walk extended:
// a[i:i+n] == b[j:j+n] for reads ra < rb, b reverse-complemented when
// rev.
type anchor struct {
	ra, rb  int32
	i, j, n int32
	rev     bool
}

// anchorOutcome is what the fold reads of one anchor's alignment.
type anchorOutcome struct {
	ok          bool // aligned, and accepted at assembly stringency
	score, diag int32
}

// span is a maximal match already extended between two reads: a[lo:hi)
// on diagonal diag, with b in orientation ob.
type span struct {
	ob           bool
	diag, lo, hi int32
}

// alignAnchor is the anchored overlap the pool runs; a test wraps it to
// count the anchors a stopped attempt aligns.
var alignAnchor = align.AnchoredOverlap

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
//
// The walk decides what to skip from the matches already extended,
// never from an alignment, so anchors can be collected before they are
// aligned. The walk records them in walk order, a batch at a time;
// pool.For aligns the batch on every core; a fold in anchor order
// keeps each pair's first best score exactly as one goroutine would.
func findOverlaps(seqs, rcs [][]byte, cfg Config, stop *atomic.Bool) []overlap {
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
	batch := make([]anchor, 0, batchSize)
	outs := make([]anchorOutcome, batchSize)
	flush := func() {
		pool.For(len(batch), minParallel, stop, func(k int) {
			a := batch[k]
			sb := seqs[a.rb]
			if a.rev {
				sb = rcs[a.rb]
			}
			res, ok := alignAnchor(seqs[a.ra], sb, int(a.i), int(a.j), int(a.n), cfg.Band, cfg.Scoring, cfg.Criteria)
			outs[k] = anchorOutcome{ok, int32(res.Score), int32(res.AStart - res.BStart)}
		})
		// A stopped pool leaves outcomes unset; its attempt returns
		// nothing, so there is nothing to fold.
		for k, a := range batch {
			if !outs[k].ok || stop.Load() {
				continue
			}
			key := pairKey{a.ra, a.rb, a.rev}
			ov := overlap{
				a: int(a.ra), b: int(a.rb),
				oa: false, ob: a.rev,
				diag:  int(outs[k].diag),
				score: int(outs[k].score),
			}
			if cur, exists := best[key]; !exists || ov.score > cur.score {
				best[key] = ov
			}
		}
		batch = batch[:0]
	}
	// The maximal matches already extended, per read pair a<<32 | b. A
	// seed inside one of them (same orientation and diagonal) would
	// extend to it again and anchor the same alignment, so it is skipped
	// before any byte is compared.
	extended := make(map[uint64][]span)

	suffixtree.EachRun(ks, func(lo, hi int) {
		occs := ks[lo:hi]
		if cfg.MaxSeedBucket > 0 && len(occs) > cfg.MaxSeedBucket || stop.Load() {
			return // repeat-saturated seed, or an abandoned attempt
		}
		for x := 0; x < len(occs); x++ {
		pairs:
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
				key, diag := uint64(ra)<<32|uint64(rb), int32(apos-bpos)
				spans := extended[key]
				for _, m := range spans {
					if m.ob == rev && m.diag == diag && int(m.lo) <= apos && apos+w <= int(m.hi) {
						continue pairs
					}
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
				extended[key] = append(spans, span{rev, diag, int32(i), int32(e)})
				batch = append(batch, anchor{ra, rb, int32(i), int32(j), int32(e - i), rev})
				if len(batch) == batchSize {
					flush()
				}
			}
		}
	})
	flush()
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
