package align

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// checkAcceptMatchesOracle requires AnchoredOverlap under c to accept
// exactly when the oracle alignment passes c, with the oracle's Result.
// It reports the oracle's decision.
func checkAcceptMatchesOracle(t *testing.T, c anchoredCase, sc Scoring, crit Criteria) bool {
	t.Helper()
	got, gotOK := AnchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc, crit)
	want, wantOK := oracleAnchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
	wantOK = wantOK && crit.Accept(want)
	if gotOK != wantOK || (gotOK && !sameResult(got, want)) {
		t.Fatalf("%+v under %+v: got %+v %v, oracle + Accept %+v %v", c, crit, got, gotOK, want, wantOK)
	}
	return wantOK
}

// TestAnchoredOverlapAcceptMatchesOracle is the bound's exactness
// contract: over random pairs and criteria, identities sitting exactly
// on the threshold and one ulp above it included, the filtered call
// decides as the oracle alignment plus Accept does. It also requires
// the bound to reject most of the pairs that fail on identity, or the
// test would prove nothing about it.
func TestAnchoredOverlapAcceptMatchesOracle(t *testing.T) {
	cases := 40000
	if testing.Short() || raceEnabled {
		cases = 8000
	}
	rng := rand.New(rand.NewSource(41))
	scorings := []Scoring{DefaultScoring(), {Match: 1, Mismatch: -1, GapOpen: 0, GapExtend: -1}}
	fixed := []float64{0.5, 0.8, 0.85, 0.9, 0.95, 1.0}
	var failing, bounded, onThreshold int
	for n := 0; n < cases; n++ {
		c := randAnchoredCase(rng)
		sc := scorings[n%len(scorings)]
		crit := Criteria{MinOverlap: rng.Intn(30), MinIdentity: fixed[n%len(fixed)]}
		if !checkAcceptMatchesOracle(t, c, sc, crit) {
			failing++
			if w, ok := identityWeights(crit.MinIdentity, len(c.a)+len(c.b)); ok && !mayPass(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, w) {
				bounded++
			}
		}
		if r, ok := oracleAnchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc); ok && r.Length > 0 {
			at := Criteria{MinIdentity: r.Identity()}
			if !checkAcceptMatchesOracle(t, c, sc, at) {
				t.Fatalf("%+v: identity %v rejected at its own threshold", c, r.Identity())
			}
			onThreshold++
			at.MinIdentity = math.Nextafter(at.MinIdentity, 2)
			checkAcceptMatchesOracle(t, c, sc, at)
		}
	}
	if onThreshold < cases/2 || bounded < failing/2 {
		t.Errorf("%d on-threshold cases; the bound rejected %d of %d failing pairs", onThreshold, bounded, failing)
	}
}

// TestIdentityWeights pins where the bound applies and its rounding:
// miss + hit = D with miss = ⌊I·D⌋.
func TestIdentityWeights(t *testing.T) {
	for _, tc := range []struct {
		id   float64
		n    int
		want weights
		ok   bool
	}{
		{0.9, 1000, weights{hit: 103, miss: 921}, true},
		{0.95, 1000, weights{hit: 52, miss: 972}, true},
		{0.5, 1000, weights{hit: 512, miss: 512}, true},
		{1, 1000, weights{hit: 0, miss: 1024}, true},
		{0.9, boundMaxLen, weights{hit: 103, miss: 921}, true},
		{0.9, boundMaxLen + 1, weights{}, false},
		{0, 1000, weights{}, false},
		{-0.5, 1000, weights{}, false},
		{1.5, 1000, weights{}, false},
		{math.NaN(), 1000, weights{}, false},
	} {
		if w, ok := identityWeights(tc.id, tc.n); w != tc.want || ok != tc.ok {
			t.Errorf("identityWeights(%v, %d) = %+v %v, want %+v %v", tc.id, tc.n, w, ok, tc.want, tc.ok)
		}
	}
}

// fuzzCriteria decodes a Criteria: pick selects one of the identities
// the product and tests use, or (pick%7 == 6) num/den, which can sit
// exactly on a pair's m/L, exceed 1, or be 0, +Inf or NaN.
func fuzzCriteria(pick, num, den, minOverlap uint8) Criteria {
	ids := [...]float64{0.5, 0.8, 0.85, 0.9, 0.95, 1.0}
	c := Criteria{MinOverlap: int(minOverlap % 64)}
	if k := int(pick % 7); k < len(ids) {
		c.MinIdentity = ids[k]
	} else {
		c.MinIdentity = float64(num) / float64(den)
	}
	return c
}

// FuzzAnchoredOverlapAccept holds the filtered call to the oracle
// alignment plus Accept: the same decision on every input, the same
// Result when accepted. Seeds live in
// testdata/fuzz/FuzzAnchoredOverlapAccept.
func FuzzAnchoredOverlapAccept(f *testing.F) {
	f.Fuzz(func(t *testing.T, pick, num, den, minOverlap uint8, data []byte) {
		checkAcceptMatchesOracle(t, fuzzAnchoredCase(data), DefaultScoring(), fuzzCriteria(pick, num, den, minOverlap))
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus of
// FuzzAnchoredOverlapAccept (run explicitly with WRITE_FUZZ_CORPUS=1;
// skipped otherwise): pairs at four error rates whose oracle identity
// m/L, reduced, fits in two bytes, each written with that identity as
// its threshold, plus the fixed identities and the out-of-range ones.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzAnchoredOverlapAccept")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, pick, num, den, minOverlap uint8, data []byte) {
		content := fmt.Sprintf("go test fuzz v1\nbyte(%q)\nbyte(%q)\nbyte(%q)\nbyte(%q)\n[]byte(%q)\n",
			pick, num, den, minOverlap, data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// pairData encodes a·anchor·a' against mutated copies of a and a'
	// in fuzzAnchoredCase's layout (bases as 0–3); both tails are nTail
	// long, so the decoder splits b's tails where they were joined.
	rng := rand.New(rand.NewSource(41))
	pairData := func(band, nTail, nAnchor int, rate float64) []byte {
		dna := func(n int) []byte {
			s := make([]byte, n)
			for i := range s {
				s[i] = byte(rng.Intn(4))
			}
			return s
		}
		mut := func(src []byte) []byte {
			out := append([]byte(nil), src...)
			for i := range out {
				if rng.Float64() < rate {
					out[i] = byte(rng.Intn(4))
				}
			}
			return out
		}
		aLeft, anchor, aRight := dna(nTail), dna(nAnchor), dna(nTail)
		data := []byte{byte(band - 1), byte(nTail), byte(nAnchor), byte(nTail)}
		data = append(append(append(data, aLeft...), anchor...), aRight...)
		return append(append(data, mut(aLeft)...), mut(aRight)...)
	}
	sc := DefaultScoring()
	n := 0
	for _, rate := range []float64{0.01, 0.05, 0.1, 0.3} {
		for written := 0; written < 3; {
			data := pairData(rng.Intn(12)+1, rng.Intn(90)+10, rng.Intn(16)+8, rate)
			c := fuzzAnchoredCase(data)
			r, ok := oracleAnchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
			if !ok || r.Length == 0 {
				continue
			}
			g := gcd(r.Matches, r.Length)
			num, den := r.Matches/g, r.Length/g
			if den > 255 {
				continue
			}
			write(fmt.Sprintf("seed-on-threshold-%d", n), 6, uint8(num), uint8(den), 0, data)
			n++
			written++
		}
	}
	data := pairData(DefaultBand, 120, 20, 0.08)
	for k := uint8(0); k < 6; k++ {
		write(fmt.Sprintf("seed-fixed-identity-%d", k), k, 0, 0, 40, data)
	}
	write("seed-above-one", 6, 11, 10, 0, data)
	write("seed-infinite", 6, 1, 0, 0, data)
	write("seed-nan", 6, 0, 0, 0, data)
	write("seed-zero", 6, 0, 7, 0, data)
	write("seed-empty", 3, 0, 0, 0, nil)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
