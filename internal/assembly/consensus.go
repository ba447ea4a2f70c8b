package assembly

import (
	"sort"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/pool"
	"repro/internal/seq"
)

// consensus builds one contig from a layout group: a backbone is
// stitched left-to-right from the placed reads, then every read is
// realigned to its backbone window and votes per column; the majority
// call (including gap) is emitted. Align-to-backbone voting corrects
// most sequencing errors wherever coverage exceeds one.
//
// The backbone is fixed before any read is fitted and votes are integer
// sums, so the fits run on pool.For and their votes are applied in
// group order. Once stop is set the contig is abandoned; the caller
// discards it.
func consensus(group []placed, members []int, get func(i int, rev bool) []byte, cfg Config, stop *atomic.Bool) Contig {
	sort.Slice(group, func(i, j int) bool {
		if group[i].off != group[j].off {
			return group[i].off < group[j].off
		}
		return group[i].read < group[j].read
	})
	origin := group[0].off
	for i := range group {
		group[i].off -= origin
	}

	// Backbone: append each read's non-covered suffix.
	var backbone []byte
	for _, p := range group {
		b := get(p.read, p.rev)
		if p.off >= len(backbone) {
			// Drift opened a gap; bridge with the read itself.
			backbone = append(backbone, b...)
			continue
		}
		if p.off+len(b) <= len(backbone) {
			continue // contained
		}
		backbone = append(backbone, b[len(backbone)-p.off:]...)
	}

	// Voting: per-column base/gap votes, plus insertion votes between
	// columns so bases the backbone lost to read deletions can be
	// recovered when a majority of covering reads carries them.
	const gapVote = 4
	votes := make([][5]int32, len(backbone))
	insVotes := make([][4]int32, len(backbone)+1)
	type fit struct {
		r  align.Result
		lo int
		ok bool
	}
	fits := make([]fit, len(group))
	pool.For(len(group), minParallel, stop, func(k int) {
		p := group[k]
		b := get(p.read, p.rev)
		lo := p.off - cfg.OffsetSlack
		if lo < 0 {
			lo = 0
		}
		hi := p.off + len(b) + cfg.OffsetSlack
		if hi > len(backbone) {
			hi = len(backbone)
		}
		r, ok := align.Fit(backbone[lo:hi], b, p.off-lo, cfg.OffsetSlack+cfg.Band, cfg.Scoring)
		fits[k] = fit{r, lo, ok}
	})
	if stop.Load() {
		return Contig{} // some fits are missing
	}
	totalBases := 0
	for k, p := range group {
		b := get(p.read, p.rev)
		totalBases += len(b)
		r := fits[k].r
		if !fits[k].ok {
			continue // drifted outside the band: this read votes nothing
		}
		u := fits[k].lo + r.AStart
		vi := r.BStart
		insRun := false
		for _, op := range r.Ops {
			switch op {
			case align.OpM:
				if u < len(backbone) {
					if c := seq.Code(b[vi]); c >= 0 {
						votes[u][c]++
					}
				}
				u++
				vi++
				insRun = false
			case align.OpY: // read base with no backbone column: insertion
				if !insRun && u <= len(backbone) {
					if c := seq.Code(b[vi]); c >= 0 {
						insVotes[u][c]++
					}
				}
				insRun = true // count only the first base of a run
				vi++
			case align.OpX: // backbone base the read lacks: gap vote
				if u < len(backbone) {
					votes[u][gapVote]++
				}
				u++
				insRun = false
			}
		}
	}

	coverage := func(i int) int32 {
		var n int32
		for c := 0; c < 5; c++ {
			n += votes[i][c]
		}
		return n
	}
	emitIns := func(out []byte, i int) []byte {
		best, bestC := int32(0), -1
		for c := 0; c < 4; c++ {
			if insVotes[i][c] > best {
				best, bestC = insVotes[i][c], c
			}
		}
		if bestC < 0 {
			return out
		}
		// Require a majority of the local coverage to agree.
		var cov int32
		if i < len(backbone) {
			cov = coverage(i)
		} else if i > 0 {
			cov = coverage(i - 1)
		}
		if 2*best > cov {
			out = append(out, seq.Base(bestC))
		}
		return out
	}

	out := make([]byte, 0, len(backbone))
	for i, v := range votes {
		out = emitIns(out, i)
		best, bestC := int32(-1), -1
		for c := 0; c < 5; c++ {
			if v[c] > best {
				best, bestC = v[c], c
			}
		}
		switch {
		case best <= 0:
			out = append(out, backbone[i]) // no votes: keep backbone
		case bestC == gapVote:
			// majority says this column is an artifact: drop it
		default:
			out = append(out, seq.Base(bestC))
		}
	}
	out = emitIns(out, len(backbone))

	contig := Contig{Bases: out}
	for _, p := range group {
		contig.Reads = append(contig.Reads, Placement{
			Frag:    members[p.read],
			Offset:  p.off,
			Reverse: p.rev,
		})
	}
	if len(out) > 0 {
		contig.Depth = float64(totalBases) / float64(len(out))
	}
	return contig
}
