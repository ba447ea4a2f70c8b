package align

// The differential oracle for Fit: the full-matrix implementation the
// product used until Fit moved to pooled rolling rows, kept only here.
// It allocates an (lv+1)·width score matrix and a direction matrix per
// call, so its (Result, ok) defines the recurrence and tie order (diag,
// then up, then left, each on strict >) the product Fit must reproduce
// bit for bit. Never call it from product code.

import "repro/internal/seq"

// oracleFit computes a banded fitting alignment: the whole of query is
// aligned inside reference, with free leading and trailing gaps in the
// reference only, restricted to a band of half-width band around the
// diagonal diag0 (query position i is expected near reference position
// i+diag0). Gap costs are linear (GapOpen+GapExtend per base), which
// suffices for consensus voting and validation against near-colinear
// truth. Memory is O(len(query)·band) — safe for contig-scale inputs
// where the full matrix would be gigabytes.
//
// In the Result, A is the reference and B the query. ok is false when
// no in-band path consumes the whole query.
func oracleFit(reference, query []byte, diag0, band int, sc Scoring) (Result, bool) {
	lu, lv := len(reference), len(query)
	if lv == 0 {
		return Result{}, false
	}
	if band < 1 {
		band = 1
	}
	width := 2*band + 1
	const neg = -1 << 28
	gap := sc.GapOpen + sc.GapExtend

	score := make([]int32, (lv+1)*width)
	from := make([]uint8, (lv+1)*width)
	const (
		fDiag = 0
		fUp   = 1
		fLeft = 2
		fNone = 3
	)
	idx := func(i, o int) int { return i*width + o }
	jOf := func(i, o int) int { return i + diag0 + o - band }

	for o := 0; o < width; o++ {
		from[idx(0, o)] = fNone
		if j := jOf(0, o); j < 0 || j > lu {
			score[idx(0, o)] = neg
		}
	}
	for i := 1; i <= lv; i++ {
		for o := 0; o < width; o++ {
			j := jOf(i, o)
			score[idx(i, o)] = neg
			from[idx(i, o)] = fNone
			if j < 0 || j > lu {
				continue
			}
			if j >= 1 && score[idx(i-1, o)] > neg {
				s := int32(sc.Mismatch)
				if reference[j-1] == query[i-1] && seq.IsBase(reference[j-1]) {
					s = int32(sc.Match)
				}
				if cand := score[idx(i-1, o)] + s; cand > score[idx(i, o)] {
					score[idx(i, o)], from[idx(i, o)] = cand, fDiag
				}
			}
			if o+1 < width && score[idx(i-1, o+1)] > neg {
				if cand := score[idx(i-1, o+1)] + int32(gap); cand > score[idx(i, o)] {
					score[idx(i, o)], from[idx(i, o)] = cand, fUp
				}
			}
			if o-1 >= 0 && j >= 1 && score[idx(i, o-1)] > neg {
				if cand := score[idx(i, o-1)] + int32(gap); cand > score[idx(i, o)] {
					score[idx(i, o)], from[idx(i, o)] = cand, fLeft
				}
			}
		}
	}

	bestO, bestS := -1, int32(neg)
	for o := 0; o < width; o++ {
		if j := jOf(lv, o); j < 0 || j > lu {
			continue
		}
		if score[idx(lv, o)] > bestS {
			bestS, bestO = score[idx(lv, o)], o
		}
	}
	if bestO < 0 {
		return Result{}, false
	}

	res := Result{Score: int(bestS), BEnd: lv, AEnd: jOf(lv, bestO)}
	// Traceback, collected back to front.
	var rev []uint8
	i, o := lv, bestO
	for i > 0 {
		f := from[idx(i, o)]
		if f == fNone {
			break
		}
		rev = append(rev, f)
		switch f {
		case fDiag:
			i--
		case fUp:
			i--
			o++
		case fLeft:
			o--
		}
	}
	res.BStart = i
	res.AStart = jOf(i, o)
	if res.AStart < 0 {
		res.AStart = 0
	}
	// Emit ops front to back in the package convention: A is the
	// reference, B the query; OpX consumes a reference base, OpY a
	// query base.
	ai, bi := res.AStart, res.BStart
	res.Ops = make([]byte, 0, len(rev))
	for k := len(rev) - 1; k >= 0; k-- {
		res.Length++
		switch rev[k] {
		case fDiag:
			res.Ops = append(res.Ops, OpM)
			if reference[ai] == query[bi] && seq.IsBase(reference[ai]) {
				res.Matches++
			}
			ai++
			bi++
		case fUp: // query base against a gap in the reference
			res.Ops = append(res.Ops, OpY)
			bi++
		case fLeft: // reference base against a gap in the query
			res.Ops = append(res.Ops, OpX)
			ai++
		}
	}
	return res, true
}
