package align

// Full-matrix affine-gap dynamic programming with traceback. These are
// the exact (unbanded) aligners: Global is Needleman–Wunsch, Local is
// Smith–Waterman, and Overlap is the semi-global suffix–prefix
// alignment that defines fragment overlaps in the paper (Section 4).
// All use Gotoh's three-state recurrence.

import "repro/internal/seq"

type dpMode int

const (
	modeGlobal dpMode = iota
	modeLocal
	modeOverlap
)

// DP states. stStart marks a free alignment start (score-0 cell).
const (
	stM     = 0 // a[i-1] aligned to b[j-1]
	stX     = 1 // gap in b: a[i-1] against '-'
	stY     = 2 // gap in a: '-' against b[j-1]
	stStart = 3
)

// Global computes an optimal global alignment of a and b.
func Global(a, b []byte, sc Scoring) Result { return dpFull(a, b, sc, modeGlobal) }

// Local computes an optimal local alignment of a and b.
func Local(a, b []byte, sc Scoring) Result { return dpFull(a, b, sc, modeLocal) }

// Overlap computes an optimal overlap (semi-global) alignment: gaps
// before the start and after the end of either sequence are free, so
// the optimum is the best suffix–prefix overlap or containment of the
// two sequences.
func Overlap(a, b []byte, sc Scoring) Result { return dpFull(a, b, sc, modeOverlap) }

func dpFull(a, b []byte, sc Scoring, mode dpMode) Result {
	la, lb := len(a), len(b)
	w := lb + 1
	size := (la + 1) * w

	m := make([]int, size)
	x := make([]int, size)
	y := make([]int, size)
	fromM := make([]uint8, size) // predecessor state of the (i-1,j-1) cell
	fromX := make([]uint8, size) // predecessor state of the (i-1,j) cell
	fromY := make([]uint8, size) // predecessor state of the (i,j-1) cell

	free := mode == modeLocal || mode == modeOverlap

	m[0], x[0], y[0] = 0, negInf, negInf
	fromM[0] = stStart
	for i := 1; i <= la; i++ {
		c := i * w
		y[c] = negInf
		if free {
			m[c], fromM[c] = 0, stStart
			x[c] = negInf
		} else {
			m[c] = negInf
			x[c] = sc.GapOpen + i*sc.GapExtend
			if i == 1 {
				fromX[c] = stM
			} else {
				fromX[c] = stX
			}
		}
	}
	for j := 1; j <= lb; j++ {
		x[j] = negInf
		if free {
			m[j], fromM[j] = 0, stStart
			y[j] = negInf
		} else {
			m[j] = negInf
			y[j] = sc.GapOpen + j*sc.GapExtend
			if j == 1 {
				fromY[j] = stM
			} else {
				fromY[j] = stY
			}
		}
	}

	for i := 1; i <= la; i++ {
		row, prow := i*w, (i-1)*w
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			// M state from diagonal predecessor. A predecessor whose M
			// value is itself a free start still records stM here, so
			// traceback visits it and stops on its stStart marker.
			d := prow + j - 1
			best, from := m[d], uint8(stM)
			if x[d] > best {
				best, from = x[d], stX
			}
			if y[d] > best {
				best, from = y[d], stY
			}
			mv := best + sc.base(ai, b[j-1])
			if mode == modeLocal && mv < 0 {
				mv, from = 0, stStart
			}
			m[row+j] = mv
			fromM[row+j] = from

			// X state from above.
			up := prow + j
			if openX, extX := m[up]+sc.GapOpen+sc.GapExtend, x[up]+sc.GapExtend; openX >= extX {
				x[row+j], fromX[row+j] = openX, stM
			} else {
				x[row+j], fromX[row+j] = extX, stX
			}

			// Y state from the left.
			left := row + j - 1
			if openY, extY := m[left]+sc.GapOpen+sc.GapExtend, y[left]+sc.GapExtend; openY >= extY {
				y[row+j], fromY[row+j] = openY, stM
			} else {
				y[row+j], fromY[row+j] = extY, stY
			}
		}
	}

	// Locate the end cell.
	endI, endJ, endSt := la, lb, stM
	endScore := negInf
	consider := func(i, j, st, v int) {
		if v > endScore {
			endScore, endI, endJ, endSt = v, i, j, st
		}
	}
	switch mode {
	case modeGlobal:
		c := la*w + lb
		consider(la, lb, stM, m[c])
		consider(la, lb, stX, x[c])
		consider(la, lb, stY, y[c])
	case modeLocal:
		for i := 0; i <= la; i++ {
			for j := 0; j <= lb; j++ {
				consider(i, j, stM, m[i*w+j])
			}
		}
	case modeOverlap:
		for j := 0; j <= lb; j++ {
			c := la*w + j
			consider(la, j, stM, m[c])
			consider(la, j, stX, x[c])
			consider(la, j, stY, y[c])
		}
		for i := 0; i <= la; i++ {
			c := i*w + lb
			consider(i, lb, stM, m[c])
			consider(i, lb, stX, x[c])
			consider(i, lb, stY, y[c])
		}
	}

	res := Result{Score: endScore, AEnd: endI, BEnd: endJ}
	// Traceback. At each step the current state tells which column type
	// to emit; the from-array gives the state to continue in. Ops are
	// collected back-to-front and reversed.
	i, j, st := endI, endJ, endSt
	for {
		c := i*w + j
		switch st {
		case stM:
			nxt := fromM[c]
			if nxt == stStart {
				// Free start (or global origin) — nothing consumed here.
				goto done
			}
			i, j = i-1, j-1
			res.Length++
			res.Ops = append(res.Ops, OpM)
			if a[i] == b[j] && seq.IsBase(a[i]) {
				res.Matches++
			}
			st = int(nxt)
		case stX:
			nxt := fromX[c]
			i--
			res.Length++
			res.Ops = append(res.Ops, OpX)
			st = int(nxt)
		case stY:
			nxt := fromY[c]
			j--
			res.Length++
			res.Ops = append(res.Ops, OpY)
			st = int(nxt)
		case stStart:
			goto done
		}
	}
done:
	res.AStart, res.BStart = i, j
	for x, y := 0, len(res.Ops)-1; x < y; x, y = x+1, y-1 {
		res.Ops[x], res.Ops[y] = res.Ops[y], res.Ops[x]
	}
	return res
}
