// Package align implements the pairwise sequence alignments the
// framework depends on: global (Needleman–Wunsch), local
// (Smith–Waterman), and suffix–prefix overlap alignment, all with
// Gotoh-style affine gap penalties, plus a banded overlap alignment
// anchored at a maximal exact match — the variant the clustering phase
// uses so that each alignment costs O(band × length) rather than the
// full dynamic-programming product (paper, Sections 2 and 4).
//
// Masked positions (seq.Masked) never match anything, so repeat-masked
// regions cannot contribute identity to an overlap.
package align

import "repro/internal/seq"

// Scoring holds alignment scores. Match is positive; Mismatch,
// GapOpen and GapExtend are negative. Opening a gap of length g costs
// GapOpen + g*GapExtend.
type Scoring struct {
	Match     int
	Mismatch  int
	GapOpen   int
	GapExtend int
}

// DefaultScoring returns scores tuned for ~1–2 % sequencing error,
// comparable to the defaults of overlap-based assemblers.
func DefaultScoring() Scoring {
	return Scoring{Match: 2, Mismatch: -5, GapOpen: -6, GapExtend: -1}
}

func (s Scoring) base(a, b byte) int {
	if a == b && seq.IsBase(a) {
		return s.Match
	}
	return s.Mismatch
}

// Alignment column operations, recorded first-to-last in Result.Ops.
const (
	OpM = byte('M') // A base aligned to B base (match or mismatch)
	OpX = byte('X') // gap in B: consumes one A base
	OpY = byte('Y') // gap in A: consumes one B base
)

// Result describes one pairwise alignment. The aligned region is
// A[AStart:AEnd] against B[BStart:BEnd]; Matches of the Length alignment
// columns are identities. Ops lists the column operations from the
// start of the aligned region (full-matrix aligners only; the banded
// anchored overlap traces back just to count Matches and Length and
// leaves Ops nil).
type Result struct {
	Score  int
	AStart int
	AEnd   int
	BStart int
	BEnd   int

	Matches int // identical columns
	Length  int // total columns including gaps
	Ops     []byte
}

// Identity returns the fraction of alignment columns that are identical
// bases, or 0 for an empty alignment.
func (r Result) Identity() float64 {
	if r.Length == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.Length)
}

// OverlapLen returns the length of the shorter projected span of the
// alignment, the usual definition of overlap length.
func (r Result) OverlapLen() int {
	la, lb := r.AEnd-r.AStart, r.BEnd-r.BStart
	if la < lb {
		return la
	}
	return lb
}

// Criteria is an overlap acceptance test. An alignment is accepted when
// it spans at least MinOverlap bases on both fragments and its identity
// is at least MinIdentity. The paper uses a less stringent criterion
// during clustering than during final assembly (Section 3).
type Criteria struct {
	MinOverlap  int
	MinIdentity float64
}

// ClusterCriteria returns the relaxed criterion used during clustering.
func ClusterCriteria() Criteria { return Criteria{MinOverlap: 40, MinIdentity: 0.90} }

// AssemblyCriteria returns the stringent criterion used during
// per-cluster assembly.
func AssemblyCriteria() Criteria { return Criteria{MinOverlap: 40, MinIdentity: 0.95} }

// Accept reports whether the alignment satisfies the criteria.
func (c Criteria) Accept(r Result) bool {
	if r.AEnd-r.AStart < c.MinOverlap || r.BEnd-r.BStart < c.MinOverlap {
		return false
	}
	return r.Identity() >= c.MinIdentity
}

const negInf = int(-1) << 40

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c int) int { return max2(max2(a, b), c) }
