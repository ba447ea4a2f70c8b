package align

// The differential oracle for the banded extension kernel: the
// closure-and-struct-cell implementation the product used until PR 14,
// kept only here. It carries (score, matches, columns) through three
// rolling rows of 12-byte cells, so its (extension, ok) defines the
// tie-breaks the traceback kernel in banded.go must reproduce bit for
// bit. Slow and allocation-heavy by design; never call it from product
// code.

import "repro/internal/seq"

type bandCell struct {
	sc int32
	m  int32 // identical columns on the best path here
	ln int32 // total columns on the best path here
}

var bandNegInf = bandCell{sc: -1 << 30}

// oracleAnchoredOverlap is AnchoredOverlap over the oracle kernel.
func oracleAnchoredOverlap(a, b []byte, apos, bpos, mlen, band int, sc Scoring) (Result, bool) {
	if band < 1 {
		band = DefaultBand
	}
	right, okR := oracleExtendBanded(a[apos+mlen:], b[bpos+mlen:], band, sc, false)
	if !okR {
		return Result{}, false
	}
	left, okL := oracleExtendBanded(a[:apos], b[:bpos], band, sc, true)
	if !okL {
		return Result{}, false
	}
	return Result{
		Score:   left.score + right.score + mlen*sc.Match,
		Matches: left.matches + right.matches + mlen,
		Length:  left.length + right.length + mlen,
		AStart:  apos - left.aUsed,
		BStart:  bpos - left.bUsed,
		AEnd:    apos + mlen + right.aUsed,
		BEnd:    bpos + mlen + right.bUsed,
	}, true
}

// oracleExtendBanded is the pre-PR-14 extendBanded, moved here verbatim
// (only renamed, and isBase spelled seq.IsBase). It aligns u against v (both already oriented away from the
// anchor; pass reversed=true for the leftward extension, which walks the
// prefixes backwards) requiring the alignment to reach the end of u or
// the end of v. Gap penalties are affine; the band is centered on the
// anchor diagonal.
func oracleExtendBanded(u, v []byte, band int, sc Scoring, reversed bool) (extension, bool) {
	lu, lv := len(u), len(v)
	if lu == 0 || lv == 0 {
		// The boundary is already reached; nothing to extend.
		return extension{}, true
	}
	at := func(s []byte, i int) byte {
		if reversed {
			return s[len(s)-1-i]
		}
		return s[i]
	}

	width := 2*band + 1
	// Rolling rows indexed by diagonal offset: column j = i + off - band,
	// off in [0, width).
	curM := make([]bandCell, width)
	curX := make([]bandCell, width)
	curY := make([]bandCell, width)
	prvM := make([]bandCell, width)
	prvX := make([]bandCell, width)
	prvY := make([]bandCell, width)

	for o := range prvM {
		prvM[o], prvX[o], prvY[o] = bandNegInf, bandNegInf, bandNegInf
	}
	// Row 0: cell (0,0) sits at offset band; cells (0,j) for j ≤ band are
	// leading gaps in u (charged — they are interior to the overall
	// overlap alignment).
	prvM[band] = bandCell{}
	for j := 1; j <= band && j <= lv; j++ {
		prvY[band+j] = bandCell{
			sc: int32(sc.GapOpen + j*sc.GapExtend),
			ln: int32(j),
		}
	}

	best := extension{score: int(bandNegInf.sc)}
	found := false
	noteBoundary := func(i, j int, c bandCell) {
		if c.sc <= bandNegInf.sc {
			return
		}
		if i == lu || j == lv {
			if !found || int(c.sc) > best.score {
				best = extension{
					score:   int(c.sc),
					matches: int(c.m),
					length:  int(c.ln),
					aUsed:   i,
					bUsed:   j,
				}
				found = true
			}
		}
	}
	// Row 0 boundary cells (possible when lv ≤ band): v fully consumed by
	// leading gaps — degenerate, but legal.
	for j := 0; j <= band && j <= lv; j++ {
		if j == 0 {
			noteBoundary(0, 0, prvM[band])
		} else {
			noteBoundary(0, j, prvY[band+j])
		}
	}

	addCol := func(p bandCell, match bool, s int32) bandCell {
		if p.sc <= bandNegInf.sc {
			return bandNegInf
		}
		c := bandCell{sc: p.sc + s, m: p.m, ln: p.ln + 1}
		if match {
			c.m++
		}
		return c
	}

	for i := 1; i <= lu; i++ {
		ui := at(u, i-1)
		for o := 0; o < width; o++ {
			curM[o], curX[o], curY[o] = bandNegInf, bandNegInf, bandNegInf
			j := i + o - band
			if j < 0 || j > lv {
				continue
			}
			if j == 0 {
				// Leading gap in v (consuming u only).
				if i <= band {
					curX[o] = bandCell{sc: int32(sc.GapOpen + i*sc.GapExtend), ln: int32(i)}
				}
				noteBoundary(i, 0, curX[o])
				continue
			}
			vj := at(v, j-1)
			match := ui == vj && seq.IsBase(ui)
			s := int32(sc.Mismatch)
			if match {
				s = int32(sc.Match)
			}
			// Diagonal predecessor (i-1, j-1) is offset o in the previous row.
			dBest := prvM[o]
			if prvX[o].sc > dBest.sc {
				dBest = prvX[o]
			}
			if prvY[o].sc > dBest.sc {
				dBest = prvY[o]
			}
			curM[o] = addCol(dBest, match, s)

			// Up predecessor (i-1, j) is offset o+1 in the previous row.
			if o+1 < width {
				open := addCol(prvM[o+1], false, int32(sc.GapOpen+sc.GapExtend))
				ext := addCol(prvX[o+1], false, int32(sc.GapExtend))
				if open.sc >= ext.sc {
					curX[o] = open
				} else {
					curX[o] = ext
				}
			}
			// Left predecessor (i, j-1) is offset o-1 in the current row.
			if o-1 >= 0 {
				open := addCol(curM[o-1], false, int32(sc.GapOpen+sc.GapExtend))
				ext := addCol(curY[o-1], false, int32(sc.GapExtend))
				if open.sc >= ext.sc {
					curY[o] = open
				} else {
					curY[o] = ext
				}
			}
			noteBoundary(i, j, curM[o])
			noteBoundary(i, j, curX[o])
			noteBoundary(i, j, curY[o])
		}
		curM, prvM = prvM, curM
		curX, prvX = prvX, curX
		curY, prvY = prvY, curY
	}
	if !found {
		return extension{}, false
	}
	return best, true
}
