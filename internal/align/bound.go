package align

import (
	"math"

	"repro/internal/seq"
)

// The identity bound rejects a failing overlap before it is aligned.
//
// Criteria.Accept judges the identity m/L of the score-optimal path P*
// that AnchoredOverlap finds: m identities among L columns. P* is the
// exact match plus one path through each extension's band, ending on
// one of that extension's boundary cells. Weigh a column +hit when it
// is an identity and −miss otherwise (mismatch, gap column, masked or
// non-base byte, a leading gap in row 0 or column 0), with
// hit = D − miss and miss = ⌊I·D⌋ for I = MinIdentity. Then
//
//	D·(m − I·L) = D·m − I·D·L ≤ D·m − miss·L = hit·m − miss·(L − m),
//
// so if the best weighted path of the right extension, plus that of the
// left, plus hit·mlen for the anchor is below zero, every path through
// the two bands has m < I·L — P* included — and Accept would reject
// it. Those best paths are a one-state, linear-gap banded DP over the
// cells the Gotoh pass fills (its path set is a subset: it never joins
// an X gap straight to a Y gap), with no direction bytes and no
// traceback.
//
// Rounding miss down (equivalently hit = ⌈(1−I)·D⌉ up) can only make
// the bound larger, so the bound fails to reject some failing pairs and
// never rejects a passing one. D is a power of two, so I·D is exact in
// float64. A rejected pair has m/L < miss/D ≤ I with the gap at least
// 1/(L·D), far above float64 rounding of m/L, so Accept's float
// comparison agrees with the bound.

// boundScale is D; boundMaxLen caps len(a)+len(b) so that every
// weighted score stays inside ±D·2^18 = ±2^28, far from unreached.
const (
	boundScale  = 1 << 10
	boundMaxLen = 1 << 18
)

// weights are the bound's column weights.
type weights struct{ hit, miss int32 }

// identityWeights returns the bound's weights for a minimum identity,
// or ok=false where the bound does not apply: an identity outside
// (0, 1] (NaN included) or inputs longer than boundMaxLen together.
func identityWeights(minIdentity float64, n int) (weights, bool) {
	if !(minIdentity > 0 && minIdentity <= 1) || n > boundMaxLen {
		return weights{}, false
	}
	miss := int32(math.Floor(minIdentity * boundScale))
	return weights{hit: boundScale - miss, miss: miss}, true
}

// mayPass reports whether the anchored overlap could reach the identity
// the weights encode; false proves Accept would reject it. The right
// extension goes first, allowing the left one at most
// hit·min(apos, bpos) (one identity per column of the shorter prefix);
// the left one then gets the right one's exact best.
func mayPass(a, b []byte, apos, bpos, mlen, band int, w weights) bool {
	s := scratchPool.Get().(*bandScratch)
	defer s.release()
	anchor := w.hit * int32(mlen)
	right, ok := s.bound(a[apos+mlen:], b[bpos+mlen:], band, w, anchor+w.hit*int32(min(apos, bpos)), false)
	if !ok {
		return false
	}
	_, ok = s.bound(a[:apos], b[:bpos], band, w, anchor+right, true)
	return ok
}

// bound returns the best weighted score over the band's paths from
// (0,0) to a boundary cell (a superset of those extendBanded
// considers), and whether it is at least -slack. It gives up with ok=false as soon as no boundary cell can get
// there: once the best boundary cell so far and the best cell of the
// row plus hit for every row left are both below -slack.
//
// The band layout is extendBanded's: row i holds columns
// j = i + o - band at index o+1, with an unreached pad on either side.
func (s *bandScratch) bound(u, v []byte, band int, w weights, slack int32, reversed bool) (int32, bool) {
	lu, lv := len(u), len(v)
	if lu == 0 || lv == 0 {
		return 0, 0 >= -slack
	}
	width := 2*band + 1
	nrows := min(lu, lv+band)
	u, v = s.orient(u, v, band, reversed)

	stride := width + 2
	s.rows = grow(s.rows, 2*stride)
	for k := range s.rows {
		s.rows[k] = unreached
	}
	prev, cur := s.rows[:stride], s.rows[stride:]
	hit, miss := w.hit, w.miss
	floor := -slack

	best := unreached
	prev[band+1] = 0
	for j := 1; j <= band && j <= lv; j++ {
		prev[band+1+j] = -miss * int32(j)
	}
	if lv <= band {
		best = prev[band+1+lv]
	}

	for i := 1; i <= nrows; i++ {
		jLo, jHi := i-band, min(i+band, lv)
		if jLo <= 0 {
			cur[band-i+1] = -miss * int32(i)
			jLo = 1
		}
		ui := int(u[i-1])
		if !seq.IsBase(u[i-1]) {
			ui = -1
		}
		shift := band + 1 - i
		kLo, kHi := jLo+shift, jHi+shift
		vrow := v[jLo-1 : jHi]
		dg := prev[kLo : kHi+1][:len(vrow)]
		up := prev[kLo+1 : kHi+2][:len(vrow)]
		out := cur[kLo : kHi+1][:len(vrow)]
		left := cur[kLo-1]
		rowMax := left
		for t, vj := range vrow {
			sub := -miss
			if int(vj) == ui {
				sub = hit
			}
			h := max(dg[t]+sub, up[t]-miss, left-miss)
			out[t], left = h, h
			rowMax = max(rowMax, h)
		}

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
			best = max(best, cur[k])
		}
		if best < floor && rowMax+hit*int32(nrows-i) < floor {
			return best, false
		}
		prev, cur = cur, prev
	}
	return best, best >= floor
}
