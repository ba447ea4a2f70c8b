package align

import (
	"math/rand"
	"sync"
	"testing"
)

// anchoredCase is one AnchoredOverlap input. The anchor is genuine
// (a[apos:apos+mlen] == b[bpos:bpos+mlen]) unless mlen is 0.
type anchoredCase struct {
	a, b             []byte
	apos, bpos, mlen int
	band             int
}

// randAnchoredCase draws a case that leans on the kernel's edges: reads
// from empty to ~130 bases so lv ≤ band, truncated bands and rows past
// lv+band all occur; masked runs; anchors flush with either read edge;
// tails that are related (a mutated copy, so ties between equal-score
// paths are common) or unrelated (so the best path crawls along a band
// edge).
func randAnchoredCase(rng *rand.Rand) anchoredCase {
	alphabet := "ACGT"
	if rng.Intn(4) == 0 {
		alphabet = "AC" // low complexity: many equal-score paths
	}
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	tail := func() int {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return rng.Intn(4)
		case 2:
			return rng.Intn(24)
		}
		return rng.Intn(130)
	}
	related := func(src []byte, n int) []byte {
		if rng.Intn(3) == 0 {
			return dna(n)
		}
		rate := []float64{0, 0.03, 0.15}[rng.Intn(3)]
		out := make([]byte, 0, n)
		for i := 0; len(out) < n; i++ {
			switch r := rng.Float64(); {
			case i >= len(src) || r < rate/3:
				out = append(out, alphabet[rng.Intn(len(alphabet))])
			case r < 2*rate/3:
				out = append(out, alphabet[rng.Intn(len(alphabet))], src[i])
			case r < rate:
				// deletion
			default:
				out = append(out, src[i])
			}
		}
		return out[:n]
	}
	mask := func(s []byte) {
		if len(s) == 0 || rng.Intn(3) != 0 {
			return
		}
		for n := rng.Intn(3) + 1; n > 0; n-- {
			at, run := rng.Intn(len(s)), rng.Intn(6)+1
			for i := at; i < len(s) && i < at+run; i++ {
				s[i] = 'N'
			}
		}
	}

	anchor := dna(rng.Intn(20))
	aLeft, aRight := dna(tail()), dna(tail())
	bLeft := related(reverseBytes(aLeft), tail())
	bLeft = reverseBytes(bLeft) // related reading away from the anchor
	bRight := related(aRight, tail())
	for _, s := range [][]byte{aLeft, aRight, bLeft, bRight} {
		mask(s)
	}
	return joinCase(aLeft, bLeft, anchor, aRight, bRight, rng.Intn(20)+1)
}

// joinCase assembles a = aLeft·anchor·aRight and b = bLeft·anchor·bRight
// with the anchor coordinates that follow.
func joinCase(aLeft, bLeft, anchor, aRight, bRight []byte, band int) anchoredCase {
	c := anchoredCase{apos: len(aLeft), bpos: len(bLeft), mlen: len(anchor), band: band}
	c.a = append(append(append(c.a, aLeft...), anchor...), aRight...)
	c.b = append(append(append(c.b, bLeft...), anchor...), bRight...)
	return c
}

func reverseBytes(s []byte) []byte {
	r := make([]byte, len(s))
	for i, c := range s {
		r[len(s)-1-i] = c
	}
	return r
}

// TestExtendBandedMatchesOracle is the exactness contract: for every
// input the traceback kernel returns the (extension, ok) of the kernel
// it replaced, in both directions, and AnchoredOverlap the same Result.
func TestExtendBandedMatchesOracle(t *testing.T) {
	cases := 120000
	if testing.Short() || raceEnabled {
		cases = 20000
	}
	rng := rand.New(rand.NewSource(14))
	scorings := []Scoring{
		DefaultScoring(),
		{Match: 1, Mismatch: -1, GapOpen: 0, GapExtend: -1}, // ties everywhere
		{Match: 5, Mismatch: -4, GapOpen: -10, GapExtend: -2},
	}
	var s bandScratch
	loose := Criteria{MinOverlap: 20, MinIdentity: 0.9}
	var accepted, rejected int
	for n := 0; n < cases; n++ {
		c := randAnchoredCase(rng)
		sc := scorings[n%len(scorings)]
		for _, reversed := range []bool{false, true} {
			u, v := c.a[c.apos+c.mlen:], c.b[c.bpos+c.mlen:]
			if reversed {
				u, v = c.a[:c.apos], c.b[:c.bpos]
			}
			got, gotOK := extendBanded(&s, u, v, c.band, sc, reversed)
			want, wantOK := oracleExtendBanded(u, v, c.band, sc, reversed)
			if got != want || gotOK != wantOK {
				t.Fatalf("case %d reversed=%v band=%d sc=%+v\nu=%s\nv=%s\n got %+v %v\nwant %+v %v",
					n, reversed, c.band, sc, u, v, got, gotOK, want, wantOK)
			}
		}
		got, gotOK := anchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
		want, wantOK := oracleAnchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
		if !sameResult(got, want) || gotOK != wantOK {
			t.Fatalf("case %d %+v: got %+v %v, want %+v %v", n, c, got, gotOK, want, wantOK)
		}
		if gotOK && loose.Accept(got) {
			accepted++
		} else {
			rejected++
		}
	}
	// The generator must produce both good overlaps and poor ones, or
	// the test proves little.
	if accepted < cases/20 || rejected < cases/20 {
		t.Errorf("unbalanced cases: %d accepted, %d rejected by %+v", accepted, rejected, loose)
	}
}

func sameResult(x, y Result) bool {
	return x.Score == y.Score && x.AStart == y.AStart && x.AEnd == y.AEnd &&
		x.BStart == y.BStart && x.BEnd == y.BEnd &&
		x.Matches == y.Matches && x.Length == y.Length &&
		len(x.Ops) == 0 && len(y.Ops) == 0
}

// benchPairs returns the two fixed pairs the layer benchmark and the
// allocation test share: a true 600 bp overlap at 3 % error, and a
// repeat-like pair that shares only the anchor and is rejected.
func benchPairs() (accepted, rejected anchoredCase) {
	rng := rand.New(rand.NewSource(600))
	genome := randDNA(rng, 900)
	a := mutate(rng, genome[:600], 0.03)
	b := mutate(rng, genome[300:], 0.03)
	accepted = anchoredCase{a: a, b: b, band: DefaultBand}
	accepted.apos, accepted.bpos, accepted.mlen = findAnchor(a, b, 16)

	repeat := randDNA(rng, 40)
	ra, rb := randDNA(rng, 600), randDNA(rng, 600)
	copy(ra[280:], repeat)
	copy(rb[300:], repeat)
	rejected = anchoredCase{a: ra, b: rb, apos: 280, bpos: 300, mlen: len(repeat), band: DefaultBand}
	return accepted, rejected
}

func TestBenchPairsAreWhatTheyClaim(t *testing.T) {
	acc, rej := benchPairs()
	sc := DefaultScoring()
	if acc.mlen < 16 {
		t.Fatalf("no anchor in the overlapping pair: %+v", acc)
	}
	r, ok := anchoredOverlap(acc.a, acc.b, acc.apos, acc.bpos, acc.mlen, acc.band, sc)
	if !ok || !ClusterCriteria().Accept(r) {
		t.Errorf("overlapping pair not accepted: %+v ok=%v", r, ok)
	}
	r, ok = anchoredOverlap(rej.a, rej.b, rej.apos, rej.bpos, rej.mlen, rej.band, sc)
	if ok && ClusterCriteria().Accept(r) {
		t.Errorf("repeat-like pair accepted: %+v", r)
	}
}

func TestAnchoredOverlapAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	acc, rej := benchPairs()
	sc := DefaultScoring()
	for _, c := range []anchoredCase{acc, rej} {
		for name, fn := range map[string]func(a, b []byte, apos, bpos, mlen, band int, sc Scoring) (Result, bool){
			"anchoredOverlap": anchoredOverlap, "AnchoredOverlap": clusterFiltered,
		} {
			run := func() { fn(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc) }
			run() // warm the pool
			if n := testing.AllocsPerRun(200, run); n != 0 {
				t.Errorf("%s allocates %.1f times per call in steady state", name, n)
			}
		}
	}
}

// TestAnchoredOverlapConcurrent shares the scratch pool between eight
// goroutines; every result must equal the serial one. `make race` runs
// it under the race detector.
func TestAnchoredOverlapConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sc := DefaultScoring()
	cases := make([]anchoredCase, 400)
	type outcome struct {
		r  Result
		ok bool
	}
	serial := make([]outcome, len(cases))
	for i := range cases {
		cases[i] = randAnchoredCase(rng)
		c := cases[i]
		serial[i].r, serial[i].ok = anchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range cases {
					i := (k*7 + g*53) % len(cases)
					c := cases[i]
					r, ok := anchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
					if ok != serial[i].ok || !sameResult(r, serial[i].r) {
						t.Errorf("goroutine %d case %d: got %+v %v, serial %+v %v", g, i, r, ok, serial[i].r, serial[i].ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzAnchoredCase decodes fuzz bytes into a valid AnchoredOverlap
// input: a header (band, the three segment lengths of a) and then the
// bases; b is a's left tail, the same anchor, and whatever bytes remain.
// Bytes map onto ACGTN so that arbitrary input still aligns.
func fuzzAnchoredCase(data []byte) anchoredCase {
	if len(data) < 4 {
		return anchoredCase{band: 1}
	}
	band := int(data[0])%24 + 1
	nLeft, nAnchor, nRight := int(data[1]), int(data[2])%32, int(data[3])
	body := make([]byte, len(data)-4)
	for i, c := range data[4:] {
		body[i] = "ACGTACGN"[c&7]
	}
	take := func(n int) []byte {
		n = min(n, len(body))
		s := body[:n]
		body = body[n:]
		return s
	}
	aLeft, anchor, aRight := take(nLeft), take(nAnchor), take(nRight)
	bLeft := take(len(body) / 2)
	return joinCase(aLeft, bLeft, anchor, aRight, body, band)
}

// FuzzAnchoredOverlap holds the kernel to the oracle on whatever bytes
// the fuzzer finds; the seeds live in testdata/fuzz/FuzzAnchoredOverlap.
func FuzzAnchoredOverlap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzAnchoredCase(data)
		sc := DefaultScoring()
		got, gotOK := anchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
		want, wantOK := oracleAnchoredOverlap(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
		if !sameResult(got, want) || gotOK != wantOK {
			t.Fatalf("%+v: got %+v %v, oracle %+v %v", c, got, gotOK, want, wantOK)
		}
	})
}

// BenchmarkAnchoredOverlap is the layer benchmark behind the ladder's
// align.cells_per_s: cells are counted the way cluster.AlignPair
// charges them, (2·band+1)·(len(a)+len(b)−2·mlen), so the two line up.
// The plain variants time the alignment alone; filtered/ ones time
// AnchoredOverlap under ClusterCriteria, identity bound first, which is
// what clustering pays (the repeat pair never reaches the alignment).
// The oracle/ variants time the kernel this one replaced on the same
// pairs, which is the "before" of the speedup on any host.
func BenchmarkAnchoredOverlap(b *testing.B) {
	acc, rej := benchPairs()
	sc := DefaultScoring()
	for _, bc := range []struct {
		name string
		c    anchoredCase
		fn   func(a, b []byte, apos, bpos, mlen, band int, sc Scoring) (Result, bool)
	}{
		{"overlap600", acc, anchoredOverlap},
		{"repeat600", rej, anchoredOverlap},
		{"filtered/overlap600", acc, clusterFiltered},
		{"filtered/repeat600", rej, clusterFiltered},
		{"oracle/overlap600", acc, oracleAnchoredOverlap},
		{"oracle/repeat600", rej, oracleAnchoredOverlap},
	} {
		c, fn := bc.c, bc.fn
		b.Run(bc.name, func(b *testing.B) {
			cells := (2*c.band + 1) * (len(c.a) + len(c.b) - 2*c.mlen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = fn(c.a, c.b, c.apos, c.bpos, c.mlen, c.band, sc)
			}
			b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

var benchSink Result

func clusterFiltered(a, b []byte, apos, bpos, mlen, band int, sc Scoring) (Result, bool) {
	return AnchoredOverlap(a, b, apos, bpos, mlen, band, sc, ClusterCriteria())
}
