package align

import "repro/internal/seq"

// Fit computes a banded fitting alignment: the whole of query is
// aligned inside reference, with free leading and trailing gaps in the
// reference only, restricted to a band of half-width band around the
// diagonal diag0 (query position i is expected near reference position
// i+diag0). Gap costs are linear (GapOpen+GapExtend per base), which
// suffices for consensus voting and validation against near-colinear
// truth. Memory is O(len(query)·band) — safe for contig-scale inputs
// where the full matrix would be gigabytes.
//
// The forward pass keeps two score rows and one direction byte per band
// cell, all in pooled scratch, so the only allocation of a call is the
// returned Ops. Each cell prefers the diagonal, then up, then left, on
// strict >; the oracle in fit_oracle_test.go pins that order.
//
// Row i of the band holds reference columns j = i + diag0 + o - band
// for offsets o in [0, width). The score rows are stored at index o+1
// with a pad cell on either side, and every cell outside a row's valid
// range [0, len(reference)] stays unreached, so the diagonal (o), up
// (o+1) and left (o-1) neighbours are read without a bounds or
// reachability test: a candidate built on an unreached cell can never
// beat one built on a reachable cell.
//
// In the Result, A is the reference and B the query. ok is false when
// no in-band path consumes the whole query.
func Fit(reference, query []byte, diag0, band int, sc Scoring) (Result, bool) {
	lu, lv := len(reference), len(query)
	if lv == 0 {
		return Result{}, false
	}
	if band < 1 {
		band = 1
	}
	// Every path starts in row 0. When row 0 holds a column of the
	// reference, every in-range cell of every row is reachable from it
	// (one of its up and diagonal neighbours is in range); when it holds
	// none, no cell is.
	if diag0+band < 0 || diag0-band > lu {
		return Result{}, false
	}
	width := 2*band + 1
	gap := int32(sc.GapOpen + sc.GapExtend)
	match, mismatch := int32(sc.Match), int32(sc.Mismatch)
	const (
		fDiag = 0
		fUp   = 1
		fLeft = 2
		fNone = 3
	)
	jOf := func(i, o int) int { return i + diag0 + o - band }

	s := scratchPool.Get().(*bandScratch)
	defer s.release()
	stride := width + 2
	s.rows = grow(s.rows, 2*stride)
	for k := range s.rows {
		s.rows[k] = unreached
	}
	prev, cur := s.rows[:stride], s.rows[stride:]
	s.dir = grow(s.dir, (lv+1)*width)
	from := s.dir

	// Row 0: the query has not started, so every column is free.
	for o := 0; o < width; o++ {
		from[o] = fNone
		if j := jOf(0, o); j >= 0 && j <= lu {
			prev[o+1] = 0
		}
	}
	for i := 1; i <= lv; i++ {
		jLo, jHi := max(i+diag0-band, 0), min(i+diag0+band, lu)
		if jLo > jHi {
			// The band has run past the reference's end; so will every
			// later row.
			return Result{}, false
		}
		// Column j sits at score index j+shift and direction byte
		// from[base+j].
		shift := band + 1 - i - diag0
		base := i*width - 1 + shift
		if jLo == 0 {
			// Column 0: the query base against a gap before the
			// reference; only the up move reaches it.
			cur[shift], from[base] = prev[shift+1]+gap, fUp
			jLo = 1
		}
		// A non-base never matches, itself included.
		qi := int(query[i-1])
		if !seq.IsBase(query[i-1]) {
			qi = -1
		}
		refRow := reference[jLo-1 : jHi]
		k, n := jLo+shift, len(refRow)
		dg, up, out := prev[k:k+n], prev[k+1:k+1+n], cur[k:k+n]
		drow := from[base+jLo : base+jLo+n]
		left := cur[k-1]
		for t, rb := range refRow {
			// Every choice is a lone conditional assignment, which
			// compiles to a conditional move, not a branch.
			sub := mismatch
			if int(rb) == qi {
				sub = match
			}
			best, f := dg[t]+sub, uint8(fDiag)
			u := up[t] + gap
			if u > best {
				f = fUp
			}
			best = max(best, u)
			l := left + gap
			if l > best {
				f = fLeft
			}
			best = max(best, l)
			out[t], drow[t] = best, f
			left = best
		}
		prev, cur = cur, prev
	}

	// prev is row lv.
	bestO, bestS := -1, noPath
	for o := 0; o < width; o++ {
		if j := jOf(lv, o); j < 0 || j > lu {
			continue
		}
		if prev[o+1] > bestS {
			bestS, bestO = prev[o+1], o
		}
	}
	if bestO < 0 {
		return Result{}, false
	}

	res := Result{Score: int(bestS), BEnd: lv, AEnd: jOf(lv, bestO)}
	// Traceback, collected back to front.
	rev := s.rev[:0]
	i, o := lv, bestO
	for i > 0 {
		f := from[i*width+o]
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
	s.rev = rev
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
