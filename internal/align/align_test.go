package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = seq.Base(rng.Intn(4))
	}
	return s
}

// mutate applies roughly rate substitutions/indels to s.
func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, b := range s {
		r := rng.Float64()
		switch {
		case r < rate/3: // deletion
		case r < 2*rate/3: // insertion
			out = append(out, b, seq.Base(rng.Intn(4)))
		case r < rate: // substitution
			out = append(out, seq.Base((seq.Code(b)+1+rng.Intn(3))%4))
		default:
			out = append(out, b)
		}
	}
	return out
}

func TestGlobalIdentical(t *testing.T) {
	sc := DefaultScoring()
	a := []byte("ACGTACGTAC")
	r := Global(a, a, sc)
	if r.Score != len(a)*sc.Match {
		t.Errorf("score = %d, want %d", r.Score, len(a)*sc.Match)
	}
	if r.Matches != len(a) || r.Length != len(a) {
		t.Errorf("matches=%d length=%d", r.Matches, r.Length)
	}
	if r.Identity() != 1.0 {
		t.Errorf("identity = %g", r.Identity())
	}
	if r.AStart != 0 || r.BStart != 0 || r.AEnd != len(a) || r.BEnd != len(a) {
		t.Errorf("span = %+v", r)
	}
}

func TestGlobalSingleMismatch(t *testing.T) {
	sc := DefaultScoring()
	r := Global([]byte("ACGTACGT"), []byte("ACGAACGT"), sc)
	want := 7*sc.Match + sc.Mismatch
	if r.Score != want {
		t.Errorf("score = %d, want %d", r.Score, want)
	}
	if r.Matches != 7 || r.Length != 8 {
		t.Errorf("matches=%d length=%d", r.Matches, r.Length)
	}
}

func TestGlobalSingleGap(t *testing.T) {
	sc := DefaultScoring()
	r := Global([]byte("ACGTTACG"), []byte("ACGTACG"), sc)
	want := 7*sc.Match + sc.GapOpen + sc.GapExtend
	if r.Score != want {
		t.Errorf("score = %d, want %d", r.Score, want)
	}
	if r.Length != 8 || r.Matches != 7 {
		t.Errorf("matches=%d length=%d", r.Matches, r.Length)
	}
}

func TestGlobalAffineGapPreferred(t *testing.T) {
	// One gap of length 2 must beat two gaps of length 1 under affine
	// scoring: the optimal alignment of these strings uses a single
	// 2-base gap.
	sc := DefaultScoring()
	r := Global([]byte("AACCGGTT"), []byte("AAGGTT"), sc)
	want := 6*sc.Match + sc.GapOpen + 2*sc.GapExtend
	if r.Score != want {
		t.Errorf("score = %d, want %d", r.Score, want)
	}
}

func TestGlobalEmptyInputs(t *testing.T) {
	sc := DefaultScoring()
	r := Global(nil, []byte("ACG"), sc)
	if r.Score != sc.GapOpen+3*sc.GapExtend {
		t.Errorf("score = %d", r.Score)
	}
	r = Global(nil, nil, sc)
	if r.Score != 0 || r.Length != 0 {
		t.Errorf("empty-empty: %+v", r)
	}
}

func TestLocalFindsEmbeddedMatch(t *testing.T) {
	sc := DefaultScoring()
	a := []byte("TTTTTACGTACGTACGTTTTT")
	b := []byte("GGGGGACGTACGTACGTGGGG")
	r := Local(a, b, sc)
	if r.Score != 12*sc.Match {
		t.Errorf("score = %d, want %d", r.Score, 12*sc.Match)
	}
	if string(a[r.AStart:r.AEnd]) != "ACGTACGTACGT" {
		t.Errorf("aligned region %s", a[r.AStart:r.AEnd])
	}
	if r.Identity() != 1.0 {
		t.Errorf("identity = %g", r.Identity())
	}
}

func TestLocalNeverNegative(t *testing.T) {
	sc := DefaultScoring()
	r := Local([]byte("AAAA"), []byte("TTTT"), sc)
	if r.Score < 0 {
		t.Errorf("local score %d < 0", r.Score)
	}
}

func TestOverlapSuffixPrefix(t *testing.T) {
	sc := DefaultScoring()
	// a's suffix of 12 equals b's prefix of 12.
	a := []byte("TTTTTTTTACGTACGTACGA")
	b := []byte("ACGTACGTACGACCCCCCCC")
	r := Overlap(a, b, sc)
	if r.Score != 12*sc.Match {
		t.Errorf("score = %d, want %d", r.Score, 12*sc.Match)
	}
	if r.AStart != 8 || r.AEnd != 20 || r.BStart != 0 || r.BEnd != 12 {
		t.Errorf("span = %+v", r)
	}
	if r.OverlapLen() != 12 {
		t.Errorf("OverlapLen = %d", r.OverlapLen())
	}
}

func TestOverlapContainment(t *testing.T) {
	sc := DefaultScoring()
	a := []byte("TTTTACGTACGTACGATTTT")
	b := []byte("ACGTACGTACGA")
	r := Overlap(a, b, sc)
	if r.Score != 12*sc.Match {
		t.Errorf("score = %d, want %d", r.Score, 12*sc.Match)
	}
	if r.BStart != 0 || r.BEnd != 12 {
		t.Errorf("containment span = %+v", r)
	}
}

func TestOverlapMaskedBasesNeverMatch(t *testing.T) {
	sc := DefaultScoring()
	a := []byte("NNNNNNNNNNNN")
	r := Overlap(a, a, sc)
	if r.Matches != 0 {
		t.Errorf("masked bases matched: %+v", r)
	}
}

func TestAnchoredOverlapExactCase(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(3))
	genome := randDNA(rng, 300)
	a := genome[:200]
	b := genome[120:]
	// Anchor: a[120:140] == b[0:20].
	r, ok := anchoredOverlap(a, b, 120, 0, 20, DefaultBand, sc)
	if !ok {
		t.Fatal("anchored overlap failed")
	}
	if r.AStart != 120 || r.AEnd != 200 || r.BStart != 0 || r.BEnd != 80 {
		t.Errorf("span = %+v", r)
	}
	if r.Identity() != 1.0 || r.Matches != 80 {
		t.Errorf("identity=%g matches=%d", r.Identity(), r.Matches)
	}
	if r.Score != 80*sc.Match {
		t.Errorf("score = %d", r.Score)
	}
}

func TestAnchoredOverlapWithErrors(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		genome := randDNA(rng, 400)
		aClean := genome[:260]
		bClean := genome[140:]
		a := mutate(rng, aClean, 0.02)
		b := mutate(rng, bClean, 0.02)
		// Find a shared exact 16-mer as anchor inside the true overlap.
		apos, bpos, mlen := findAnchor(a, b, 16)
		if mlen == 0 {
			continue // no anchor survived mutation; skip trial
		}
		r, ok := anchoredOverlap(a, b, apos, bpos, mlen, DefaultBand, sc)
		if !ok {
			t.Fatalf("trial %d: extension failed", trial)
		}
		if r.Identity() < 0.90 {
			t.Errorf("trial %d: identity %.3f too low", trial, r.Identity())
		}
		if r.OverlapLen() < 80 {
			t.Errorf("trial %d: overlap %d too short", trial, r.OverlapLen())
		}
	}
}

// findAnchor locates a shared k-mer between a and b and extends it to a
// maximal match, returning its coordinates.
func findAnchor(a, b []byte, k int) (apos, bpos, mlen int) {
	idx := make(map[string]int)
	for i := 0; i+k <= len(a); i++ {
		idx[string(a[i:i+k])] = i
	}
	for j := 0; j+k <= len(b); j++ {
		if i, ok := idx[string(b[j:j+k])]; ok {
			// Extend to a maximal match.
			s, t := i, j
			for s > 0 && t > 0 && a[s-1] == b[t-1] {
				s--
				t--
			}
			e, f := i+k, j+k
			for e < len(a) && f < len(b) && a[e] == b[f] {
				e++
				f++
			}
			return s, t, e - s
		}
	}
	return 0, 0, 0
}

func TestAnchoredOverlapAgreesWithFullOverlap(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(21))
	agree := 0
	trials := 0
	for trial := 0; trial < 30; trial++ {
		genome := randDNA(rng, 300)
		a := mutate(rng, genome[:200], 0.01)
		b := mutate(rng, genome[100:], 0.01)
		apos, bpos, mlen := findAnchor(a, b, 16)
		if mlen == 0 {
			continue
		}
		trials++
		banded, ok := anchoredOverlap(a, b, apos, bpos, mlen, DefaultBand, sc)
		if !ok {
			continue
		}
		full := Overlap(a, b, sc)
		// The banded anchored score can only be ≤ the unbanded optimum.
		if banded.Score > full.Score {
			t.Fatalf("trial %d: banded %d > full %d", trial, banded.Score, full.Score)
		}
		if float64(banded.Score) >= 0.95*float64(full.Score) {
			agree++
		}
	}
	if trials > 0 && agree < trials*8/10 {
		t.Errorf("banded agreed with full on only %d/%d trials", agree, trials)
	}
}

func TestAnchoredOverlapBandTooNarrow(t *testing.T) {
	sc := DefaultScoring()
	// The sequences diverge by a 10-base insertion right after the
	// anchor; a band of 2 cannot absorb it but the extension can still
	// reach a boundary (at poor score); identity should collapse.
	a := []byte("ACGTACGTACGTAAAAAAAAAACCCCCCCCGGGG")
	b := []byte("ACGTACGTACGTCCCCCCCCGGGG")
	r, ok := anchoredOverlap(a, b, 0, 0, 12, 2, sc)
	if ok && r.Identity() > 0.9 {
		t.Errorf("narrow band should not find a high-identity overlap: %+v", r)
	}
}

func TestCriteriaAccept(t *testing.T) {
	c := Criteria{MinOverlap: 40, MinIdentity: 0.9}
	good := Result{AStart: 0, AEnd: 50, BStart: 0, BEnd: 50, Matches: 48, Length: 50}
	if !c.Accept(good) {
		t.Error("good overlap rejected")
	}
	short := Result{AStart: 0, AEnd: 30, BStart: 0, BEnd: 30, Matches: 30, Length: 30}
	if c.Accept(short) {
		t.Error("short overlap accepted")
	}
	noisy := Result{AStart: 0, AEnd: 50, BStart: 0, BEnd: 50, Matches: 40, Length: 50}
	if c.Accept(noisy) {
		t.Error("low-identity overlap accepted")
	}
}

func TestClusterLooserThanAssembly(t *testing.T) {
	cc, ac := ClusterCriteria(), AssemblyCriteria()
	if cc.MinIdentity >= ac.MinIdentity {
		t.Error("clustering must be less stringent than assembly (paper §3)")
	}
}

// Property: global alignment score is symmetric.
func TestGlobalSymmetry(t *testing.T) {
	sc := DefaultScoring()
	f := func(ra, rb []byte) bool {
		a, b := seq.Clean(truncate(ra, 40)), seq.Clean(truncate(rb, 40))
		return Global(a, b, sc).Score == Global(b, a, sc).Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: overlap alignment is reverse-complement invariant:
// overlapping a suffix of a with a prefix of b is the same problem as
// overlapping a suffix of RC(b) with a prefix of RC(a).
func TestOverlapRCInvariance(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randDNA(rng, 30+rng.Intn(40))
		b := randDNA(rng, 30+rng.Intn(40))
		r1 := Overlap(a, b, sc)
		r2 := Overlap(seq.ReverseComplement(b), seq.ReverseComplement(a), sc)
		if r1.Score != r2.Score {
			t.Fatalf("trial %d: %d != %d", trial, r1.Score, r2.Score)
		}
	}
}

// Property: identity is in [0,1] and Matches ≤ Length for all modes.
func TestResultInvariants(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		a := randDNA(rng, rng.Intn(60))
		b := randDNA(rng, rng.Intn(60))
		for _, r := range []Result{Global(a, b, sc), Local(a, b, sc), Overlap(a, b, sc)} {
			if r.Matches > r.Length {
				t.Fatalf("matches %d > length %d", r.Matches, r.Length)
			}
			if id := r.Identity(); id < 0 || id > 1 {
				t.Fatalf("identity %g out of range", id)
			}
			if r.AStart > r.AEnd || r.BStart > r.BEnd {
				t.Fatalf("inverted span %+v", r)
			}
			if r.AEnd > len(a) || r.BEnd > len(b) {
				t.Fatalf("span out of bounds %+v", r)
			}
		}
	}
}

// Property: local score ≥ 0 and ≥ any global score.
func TestLocalDominatesGlobal(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		a := randDNA(rng, 10+rng.Intn(50))
		b := randDNA(rng, 10+rng.Intn(50))
		l, g := Local(a, b, sc), Global(a, b, sc)
		if l.Score < 0 {
			t.Fatalf("local score %d < 0", l.Score)
		}
		if l.Score < g.Score {
			t.Fatalf("local %d < global %d", l.Score, g.Score)
		}
	}
}

// Property: overlap score ≥ global score (free end gaps can only help).
func TestOverlapDominatesGlobal(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		a := randDNA(rng, 10+rng.Intn(50))
		b := randDNA(rng, 10+rng.Intn(50))
		o, g := Overlap(a, b, sc), Global(a, b, sc)
		if o.Score < g.Score {
			t.Fatalf("overlap %d < global %d", o.Score, g.Score)
		}
	}
}

func truncate(s []byte, n int) []byte {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestAnchoredOverlapFullLengthAnchor(t *testing.T) {
	sc := DefaultScoring()
	a := []byte("ACGTACGTACGTACGTACGT")
	b := append([]byte(nil), a...)
	r, ok := anchoredOverlap(a, b, 0, 0, len(a), DefaultBand, sc)
	if !ok {
		t.Fatal("identical sequences must overlap")
	}
	if r.Matches != len(a) || r.Identity() != 1.0 {
		t.Errorf("full anchor: %+v", r)
	}
	if r.AStart != 0 || r.AEnd != len(a) || r.BStart != 0 || r.BEnd != len(b) {
		t.Errorf("span: %+v", r)
	}
}

func TestAnchoredOverlapAnchorAtEdges(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(77))
	g := randDNA(rng, 120)
	a, b := g[:80], g[40:]
	// Anchor at the very start of the shared region on b, end of a.
	r, ok := anchoredOverlap(a, b, 40, 0, 40, DefaultBand, sc)
	if !ok || r.Matches != 40 {
		t.Fatalf("edge anchor failed: %+v ok=%v", r, ok)
	}
	// Anchor covering only the tail end.
	r2, ok2 := anchoredOverlap(a, b, 70, 30, 10, DefaultBand, sc)
	if !ok2 || r2.Matches != 40 {
		t.Fatalf("tail anchor failed: %+v ok=%v", r2, ok2)
	}
}
