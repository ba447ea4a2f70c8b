package assembly

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// strands returns the reads and their reverse complements, the two
// inputs findOverlaps takes.
func strands(reads [][]byte) (seqs, rcs [][]byte) {
	rcs = make([][]byte, len(reads))
	for i, r := range reads {
		rcs[i] = seq.ReverseComplement(r)
	}
	return reads, rcs
}

// maskRuns overwrites up to n runs of 1–6 bytes of s with seq.Masked.
// A run inside an overlap splits its maximal match in two.
func maskRuns(rng *rand.Rand, s []byte, n int) {
	for k := rng.Intn(n + 1); k > 0 && len(s) > 0; k-- {
		at := rng.Intn(len(s))
		for i := at; i < min(at+1+rng.Intn(6), len(s)); i++ {
			s[i] = seq.Masked
		}
	}
}

// windowReads cuts n reads of length in [minLen, maxLen] from src at
// random starts, each reverse-complemented with probability rcProb,
// with sequencing errors at errRate.
func windowReads(rng *rand.Rand, src []byte, n, minLen, maxLen int, rcProb, errRate float64) [][]byte {
	reads := make([][]byte, n)
	for i := range reads {
		l := min(minLen+rng.Intn(maxLen-minLen+1), len(src))
		at := rng.Intn(len(src) - l + 1)
		r := append([]byte(nil), src[at:at+l]...)
		if rng.Float64() < rcProb {
			seq.ReverseComplementInPlace(r)
		}
		if errRate > 0 {
			r = noisy(rng, r, errRate)
		}
		reads[i] = r
	}
	return reads
}

// periodic repeats a random unit of 2–9 bases to length n, with rare
// point changes: one maximal match then holds the same w-mer many times.
func periodic(rng *rand.Rand, n int) []byte {
	unit := randSeq(rng, 2+rng.Intn(8))
	s := make([]byte, n)
	for i := range s {
		s[i] = unit[i%len(unit)]
		if rng.Intn(60) == 0 {
			s[i] = seq.Base(rng.Intn(4))
		}
	}
	return s
}

// overlapCase is one cluster and the configuration to detect its
// overlaps with.
type overlapCase struct {
	name  string
	reads [][]byte
	cfg   Config
}

// randomOverlapCase draws a cluster of one of the shapes that stress
// the anchor order: noisy tiles with masked runs, reverse-complement
// piles, periodic reads, reads shorter than W and seeds at read edges.
func randomOverlapCase(rng *rand.Rand) overlapCase {
	cfg := DefaultConfig()
	cfg.W = []int{8, 11, 14, 20}[rng.Intn(4)]
	cfg.Band = 1 + rng.Intn(12)
	cfg.MaxSeedBucket = []int{0, 4, 16, 64}[rng.Intn(4)]
	if rng.Intn(3) == 0 {
		cfg.Criteria = align.Criteria{MinOverlap: 20, MinIdentity: 0.85}
	}
	switch kind := rng.Intn(5); kind {
	case 0: // noisy tiles of both strands with masked runs
		reads := windowReads(rng, randSeq(rng, 1200), 4+rng.Intn(8), 150, 400, 0.5, 0.02*rng.Float64())
		for _, r := range reads {
			maskRuns(rng, r, 3)
		}
		return overlapCase{"masked", reads, cfg}
	case 1: // every read reverse-complemented: rc/rc anchors are mirrored
		return overlapCase{"rc-rc", windowReads(rng, randSeq(rng, 900), 4+rng.Intn(6), 120, 300, 1, 0.01), cfg}
	case 2: // tandem repeats, often past MaxSeedBucket
		return overlapCase{"periodic", windowReads(rng, periodic(rng, 600), 3+rng.Intn(4), 40, 160, 0.5, 0.01*rng.Float64()), cfg}
	case 3: // reads shorter than, as long as and a little longer than W
		src := randSeq(rng, 200)
		reads := windowReads(rng, src, 6+rng.Intn(6), cfg.W-3, cfg.W+12, 0.5, 0)
		reads = append(reads, windowReads(rng, src, 4, 60, 120, 0.5, 0)...)
		return overlapCase{"short", reads, cfg}
	default: // shared sequence flush with both read edges
		src := randSeq(rng, 500)
		var reads [][]byte
		for k := 0; k < 3+rng.Intn(4); k++ {
			at := rng.Intn(300)
			reads = append(reads, append([]byte(nil), src[at:at+100+rng.Intn(100)]...))
			reads = append(reads, append([]byte(nil), src[:at+cfg.W]...), append([]byte(nil), src[at:]...))
		}
		if rng.Intn(2) == 0 {
			seq.ReverseComplementInPlace(reads[rng.Intn(len(reads))])
		}
		return overlapCase{"edges", reads, cfg}
	}
}

func TestFindOverlapsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	check := func(c overlapCase) []overlap {
		t.Helper()
		seqs, rcs := strands(c.reads)
		got := findOverlaps(seqs, rcs, c.cfg, new(atomic.Bool))
		if want := referenceFindOverlaps(seqs, rcs, c.cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (W %d, band %d, bucket cap %d): got %+v, reference %+v",
				c.name, c.cfg.W, c.cfg.Band, c.cfg.MaxSeedBucket, got, want)
		}
		return got
	}
	// Every shape must accept overlaps, or it tests no tie order.
	accepted := map[string]int{"masked": 0, "rc-rc": 0, "periodic": 0, "short": 0, "edges": 0}
	for k := 0; k < 300; k++ {
		c := randomOverlapCase(rng)
		accepted[c.name] += len(check(c))
	}
	for name, n := range accepted {
		if n < 50 {
			t.Errorf("%s clusters: %d overlaps accepted over the random cases", name, n)
		}
	}

	// Buckets of exactly MaxSeedBucket occurrences are seeded, one more
	// are skipped: n copies of a read put n occurrences in each bucket.
	const n = 6
	motif := randSeq(rng, 90)
	reads := [][]byte{randSeq(rng, 120)}
	for k := 0; k < n; k++ {
		reads = append(reads, append([]byte(nil), motif...))
	}
	cfg := DefaultConfig()
	for _, limit := range []int{n - 1, n, n + 1} {
		cfg.MaxSeedBucket = limit
		got := check(overlapCase{"bucket-edge", reads, cfg})
		if seeded := len(got) > 0; seeded != (limit >= n) {
			t.Errorf("cap %d on %d-occurrence buckets: %d overlaps", limit, n, len(got))
		}
	}
}

// fuzzOverlapCase decodes fuzz bytes into a cluster: a header (W, band,
// bucket cap, criteria, read count), three bytes per read (start, length,
// strand and mask) and a source the reads are windows of. Bytes map onto
// ACGT with an occasional N so that arbitrary input still seeds.
func fuzzOverlapCase(data []byte) overlapCase {
	cfg := DefaultConfig()
	if len(data) < 5 {
		return overlapCase{"fuzz", nil, cfg}
	}
	cfg.W = 4 + int(data[0])%17
	cfg.Band = 1 + int(data[1])%16
	cfg.MaxSeedBucket = int(data[2]) % 24
	if data[3]&1 == 1 {
		cfg.Criteria = align.Criteria{MinOverlap: 12, MinIdentity: 0.8}
	}
	nreads := 2 + int(data[4])%6
	data = data[5:]
	desc := data[:min(3*nreads, len(data))]
	src := make([]byte, min(len(data)-len(desc), 400))
	for i := range src {
		src[i] = "ACGTACGTACGTACGN"[data[len(desc)+i]&15]
	}
	var reads [][]byte
	for k := 0; k+3 <= len(desc) && len(src) > 0; k += 3 {
		at := int(desc[k]) * len(src) / 256
		r := append([]byte(nil), src[at:min(at+1+int(desc[k+1]), len(src))]...)
		if desc[k+2]&1 == 1 {
			seq.ReverseComplementInPlace(r)
		}
		if m := int(desc[k+2] >> 2); m < len(r) && desc[k+2]&2 != 0 {
			r[m] = seq.Masked
		}
		reads = append(reads, r)
	}
	return overlapCase{"fuzz", reads, cfg}
}

// FuzzFindOverlaps holds findOverlaps to the reference on whatever
// clusters the fuzzer finds; the seeds live in
// testdata/fuzz/FuzzFindOverlaps.
func FuzzFindOverlaps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzOverlapCase(data)
		seqs, rcs := strands(c.reads)
		got := findOverlaps(seqs, rcs, c.cfg, new(atomic.Bool))
		if want := referenceFindOverlaps(seqs, rcs, c.cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: got %+v, reference %+v", c, got, want)
		}
	})
}
