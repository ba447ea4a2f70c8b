package align

import (
	"sync"

	"repro/internal/seq"
)

// Banded overlap alignment anchored at a maximal exact match. The
// clustering phase generates promising pairs together with the
// coordinates of a shared maximal match (paper, Section 5); anchoring
// the alignment to that match lets the overlap test run in
// O(band × length) instead of the full dynamic-programming product,
// which is the alignment-cost reduction the paper's filter exists to
// enable (Section 2).
//
// The overlap is computed as the exact match plus two banded
// extensions: leftward from the match start to the beginning of either
// fragment and rightward from the match end to the end of either
// fragment. An extension must reach a fragment boundary — overlaps span
// to sequence ends, with the dangling tail of the other fragment free.

// DefaultBand is the default half-width of the extension band: an
// extension may drift up to 12 diagonals off the anchor, i.e. absorb a
// net 12 inserted or deleted bases. At ~2 % sequencing error a
// sub-kilobase fragment carries about ten indels whose net drift has a
// standard deviation near 3, so a true overlap leaves the band only
// when the reads do not really overlap.
const DefaultBand = 12

// AnchoredOverlap tests the overlap of a and b at the anchor
// a[apos:apos+mlen] == b[bpos:bpos+mlen] against c: it aligns them with
// banded extensions of half-width band and reports whether the
// alignment exists and c accepts it. A pair the identity bound
// (bound.go) proves below c.MinIdentity is rejected without being
// aligned, which changes no decision. A rejected pair returns the zero
// Result. The zero Criteria skips the bound and accepts every
// alignment that reaches a boundary.
func AnchoredOverlap(a, b []byte, apos, bpos, mlen, band int, sc Scoring, c Criteria) (Result, bool) {
	if band < 1 {
		band = DefaultBand
	}
	if w, ok := identityWeights(c.MinIdentity, len(a)+len(b)); ok && !mayPass(a, b, apos, bpos, mlen, band, w) {
		return Result{}, false
	}
	if res, ok := anchoredOverlap(a, b, apos, bpos, mlen, band, sc); ok && c.Accept(res) {
		return res, true
	}
	return Result{}, false
}

// anchoredOverlap is the alignment alone, with neither the bound nor a
// criterion. It returns the combined overlap alignment and ok=false if
// either extension cannot reach a fragment boundary inside the band.
func anchoredOverlap(a, b []byte, apos, bpos, mlen, band int, sc Scoring) (Result, bool) {
	if band < 1 {
		band = DefaultBand
	}
	s := scratchPool.Get().(*bandScratch)
	right, ok := extendBanded(s, a[apos+mlen:], b[bpos+mlen:], band, sc, false)
	var left extension
	if ok {
		left, ok = extendBanded(s, a[:apos], b[:bpos], band, sc, true)
	}
	s.release()
	if !ok {
		return Result{}, false
	}
	res := Result{
		Score:   left.score + right.score + mlen*sc.Match,
		Matches: left.matches + right.matches + mlen,
		Length:  left.length + right.length + mlen,
		AStart:  apos - left.aUsed,
		BStart:  bpos - left.bUsed,
		AEnd:    apos + mlen + right.aUsed,
		BEnd:    bpos + mlen + right.bUsed,
	}
	return res, true
}

type extension struct {
	score   int
	matches int
	length  int
	aUsed   int
	bUsed   int
}

// bandScratch is the working memory of one anchored alignment, identity
// bound or Fit call, reused across calls through scratchPool so the
// steady state allocates nothing. For 700 bp reads at the default band
// it is about 20 KB; for Fit at the consensus band (OffsetSlack +
// DefaultBand) about 52 KB.
type bandScratch struct {
	rows []int32 // score rows, each width+2: six (previous and current M, X, Y), or Fit's two
	dir  []byte  // one direction byte per band cell, (rows+1) × width
	rev  []byte  // reversed u then v, for the leftward extension; Fit's traceback
}

var scratchPool = sync.Pool{New: func() any { return new(bandScratch) }}

// release returns s to scratchPool, unless one very long input grew it
// past maxPooledScratch.
func (s *bandScratch) release() {
	if 4*cap(s.rows)+cap(s.dir)+cap(s.rev) <= maxPooledScratch {
		scratchPool.Put(s)
	}
}

// grow returns s resized to n elements, reallocating only when its
// capacity is too small; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxPooledScratch bounds what goes back into scratchPool: a scratch
// grown by one very long fragment is dropped rather than pinned.
const maxPooledScratch = 1 << 20

const (
	// unreached initialises cells no path has reached; noPath is the
	// test for them. Sums of a few penalties onto unreached stay below
	// noPath and every reachable score stays above it (scoring
	// magnitude × fragment length is far inside ±2^29), so the
	// recurrence adds without clamping.
	unreached int32 = -1 << 30
	noPath    int32 = -1 << 29

	// Direction byte: the state the M cell's diagonal predecessor was
	// taken in (stM, stX or stY), and whether the X and Y cells extend a
	// gap (set) or open one from M (clear).
	dirMask = 3
	dirXExt = 4
	dirYExt = 8
)

// orient returns u and v as an extension reads them: unchanged for the
// rightward one, reversed into s.rev for the leftward one. Rows past
// len(v)+band and columns past len(u)+band hold no band cell, so only
// the bytes before them are copied; callers read no further.
func (s *bandScratch) orient(u, v []byte, band int, reversed bool) ([]byte, []byte) {
	if !reversed {
		return u, v
	}
	lu, lv := len(u), len(v)
	nrows, ncols := min(lu, lv+band), min(lv, lu+band)
	s.rev = grow(s.rev, nrows+ncols)
	ru, rv := s.rev[:nrows], s.rev[nrows:]
	for i := range ru {
		ru[i] = u[lu-1-i]
	}
	for j := range rv {
		rv[j] = v[lv-1-j]
	}
	return ru, rv
}

// extendBanded aligns u against v (both already oriented away from the
// anchor; pass reversed=true for the leftward extension, which walks the
// prefixes backwards) requiring the alignment to reach the end of u or
// the end of v. Gap penalties are affine; the band is centered on the
// anchor diagonal.
//
// Row i of the band holds columns j = i + o - band for offsets o in
// [0, width). The forward pass keeps only scores — the previous and
// current row of each Gotoh state, stored at index o+1 with a pad cell
// on either side that stays unreached, so the up (o+1) and left (o-1)
// neighbours need no bounds test — plus one direction byte per cell. A
// traceback from the best boundary cell then counts columns and
// identities. The choices the direction bytes record are exactly: the
// diagonal predecessor prefers M, then X, then Y (strict >); a gap
// prefers opening over extending (>=); among boundary cells the first
// in (row, offset, M/X/Y) order with the strictly highest score wins.
func extendBanded(s *bandScratch, u, v []byte, band int, sc Scoring, reversed bool) (extension, bool) {
	lu, lv := len(u), len(v)
	if lu == 0 || lv == 0 {
		// The boundary is already reached; nothing to extend.
		return extension{}, true
	}
	width := 2*band + 1
	nrows := min(lu, lv+band)
	u, v = s.orient(u, v, band, reversed)

	stride := width + 2
	s.rows = grow(s.rows, 6*stride)
	rows := s.rows
	for k := range rows {
		rows[k] = unreached
	}
	pM, pX, pY := rows[0:stride], rows[stride:2*stride], rows[2*stride:3*stride]
	cM, cX, cY := rows[3*stride:4*stride], rows[4*stride:5*stride], rows[5*stride:6*stride]
	s.dir = grow(s.dir, (nrows+1)*width)
	dir := s.dir

	match, mismatch := int32(sc.Match), int32(sc.Mismatch)
	gapExt := int32(sc.GapExtend)
	gapOpen := int32(sc.GapOpen + sc.GapExtend) // first column of a gap

	best, bestI, bestJ, bestSt := noPath, 0, 0, stM

	// Row 0: cell (0,0) sits at offset band; cells (0,j) for j ≤ band are
	// leading gaps in u (charged — they are interior to the overall
	// overlap alignment).
	pM[band+1] = 0
	for j := 1; j <= band && j <= lv; j++ {
		pY[band+1+j] = int32(sc.GapOpen + j*sc.GapExtend)
	}
	if lv <= band {
		// v fully consumed by leading gaps — degenerate, but legal.
		best, bestJ, bestSt = pY[band+1+lv], lv, stY
	}

	for i := 1; i <= nrows; i++ {
		jLo, jHi := i-band, min(i+band, lv)
		if jLo <= 0 {
			// Column 0: a leading gap in v (consuming u only).
			k := band - i + 1
			cM[k], cX[k], cY[k] = unreached, int32(sc.GapOpen+i*sc.GapExtend), unreached
			jLo = 1
		}
		// A non-base never matches, itself included.
		ui := int(u[i-1])
		if !seq.IsBase(u[i-1]) {
			ui = -1
		}
		shift := band + 1 - i // index k = j + shift
		kLo, kHi := jLo+shift, jHi+shift
		vrow := v[jLo-1 : jHi]
		drow := dir[i*width+kLo-1 : i*width+kHi]
		dm, dx, dy := pM[kLo:kHi+1], pX[kLo:kHi+1], pY[kLo:kHi+1]
		um, ux := pM[kLo+1:kHi+2], pX[kLo+1:kHi+2]
		om, ox, oy := cM[kLo:kHi+1], cX[kLo:kHi+1], cY[kLo:kHi+1]
		dm, dx, dy = dm[:len(vrow)], dx[:len(vrow)], dy[:len(vrow)]
		um, ux = um[:len(vrow)], ux[:len(vrow)]
		om, ox, oy = om[:len(vrow)], ox[:len(vrow)], oy[:len(vrow)]
		drow = drow[:len(vrow)]
		leftM, leftY := cM[kLo-1], cY[kLo-1]
		for t, vj := range vrow {
			// Diagonal predecessor (i-1, j-1): same offset, previous row.
			// Every choice is a lone conditional assignment, which
			// compiles to a conditional move, not a branch.
			d, from := dm[t], uint32(stM)
			if dx[t] > d {
				from = stX
			}
			d = max(d, dx[t])
			if dy[t] > d {
				from = stY
			}
			d = max(d, dy[t])
			sub := mismatch
			if int(vj) == ui {
				sub = match
			}
			d += sub
			// Up predecessor (i-1, j): offset o+1 in the previous row.
			x, e := um[t]+gapOpen, ux[t]+gapExt
			var xExt uint32
			if e > x {
				xExt = dirXExt
			}
			x = max(x, e)
			// Left predecessor (i, j-1): offset o-1 in the current row.
			y, e := leftM+gapOpen, leftY+gapExt
			var yExt uint32
			if e > y {
				yExt = dirYExt
			}
			y = max(y, e)
			om[t], ox[t], oy[t], drow[t] = d, x, y, byte(from|xExt|yExt)
			leftM, leftY = d, y
		}

		// Boundary cells: the whole last row of u (column 0 included),
		// otherwise only the column that ends v, if this row holds it.
		kFrom := kHi
		switch {
		case i == lu && i <= band:
			kFrom = kLo - 1
		case i == lu:
			kFrom = kLo
		case jHi < lv:
			kFrom = kHi + 1
		}
		for k := kFrom; k <= kHi; k++ {
			if c := cM[k]; c > best {
				best, bestI, bestJ, bestSt = c, i, k-shift, stM
			}
			if c := cX[k]; c > best {
				best, bestI, bestJ, bestSt = c, i, k-shift, stX
			}
			if c := cY[k]; c > best {
				best, bestI, bestJ, bestSt = c, i, k-shift, stY
			}
		}
		pM, cM = cM, pM
		pX, cX = cX, pX
		pY, cY = cY, pY
	}
	if best <= noPath {
		return extension{}, false
	}

	// Traceback. Row 0 and column 0 are pure leading gaps, so the walk
	// stops there and books the remainder as gap columns.
	ext := extension{score: int(best), aUsed: bestI, bUsed: bestJ}
	i, j, st := bestI, bestJ, bestSt
	for i > 0 && j > 0 {
		d := dir[i*width+j-i+band]
		ext.length++
		switch st {
		case stM:
			i, j = i-1, j-1
			if u[i] == v[j] && seq.IsBase(u[i]) {
				ext.matches++
			}
			st = int(d & dirMask)
		case stX:
			i--
			if d&dirXExt == 0 {
				st = stM
			}
		default:
			j--
			if d&dirYExt == 0 {
				st = stM
			}
		}
	}
	ext.length += i + j
	return ext, true
}
