package align

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/seq"
)

func TestFitExact(t *testing.T) {
	sc := DefaultScoring()
	ref := []byte("GGGGACGTACGTACGTTTTT")
	q := []byte("ACGTACGTACGT")
	r, ok := Fit(ref, q, 4, 6, sc)
	if !ok {
		t.Fatal("fit failed")
	}
	if r.AStart != 4 || r.AEnd != 16 {
		t.Errorf("ref span = [%d,%d), want [4,16)", r.AStart, r.AEnd)
	}
	if r.BStart != 0 || r.BEnd != len(q) {
		t.Errorf("query span = [%d,%d)", r.BStart, r.BEnd)
	}
	if r.Matches != len(q) || r.Length != len(q) {
		t.Errorf("matches=%d length=%d", r.Matches, r.Length)
	}
	for _, op := range r.Ops {
		if op != OpM {
			t.Error("exact fit must be all match ops")
		}
	}
}

func TestFitWithIndel(t *testing.T) {
	sc := DefaultScoring()
	ref := []byte("GGGGACGTACGTACGTACGGGGG")
	q := []byte("ACGTACTACGTACG") // one deletion relative to ref
	r, ok := Fit(ref, q, 4, 8, sc)
	if !ok {
		t.Fatal("fit failed")
	}
	nX := 0
	for _, op := range r.Ops {
		if op == OpX {
			nX++
		}
	}
	if nX != 1 {
		t.Errorf("%d reference-only columns, want 1", nX)
	}
	if r.Identity() < 0.9 {
		t.Errorf("identity %.3f", r.Identity())
	}
}

func TestFitEmptyQuery(t *testing.T) {
	if _, ok := Fit([]byte("ACGT"), nil, 0, 4, DefaultScoring()); ok {
		t.Error("empty query must not fit")
	}
}

func TestFitBandMiss(t *testing.T) {
	sc := DefaultScoring()
	ref := []byte("AAAAAAAAAAAAAAAAAAAACGTACGTACGT")
	q := []byte("CGTACGTACGT")
	// The query sits at ref offset 20, but diag0 = 0 with band 3
	// cannot reach it.
	if r, ok := Fit(ref, q, 0, 3, sc); ok && r.Identity() > 0.8 {
		t.Errorf("band miss produced a high-identity fit: %+v", r)
	}
}

// TestFitAgreesWithGlobalOnColinear: for near-colinear pairs the
// banded fit must recover the same identity as the exact aligner.
func TestFitAgreesWithGlobalOnColinear(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 200 + rng.Intn(400)
		truth := make([]byte, n)
		for i := range truth {
			truth[i] = seq.Base(rng.Intn(4))
		}
		// Mutate ~2%.
		q := make([]byte, 0, n)
		for _, b := range truth {
			r := rng.Float64()
			switch {
			case r < 0.005:
			case r < 0.010:
				q = append(q, b, seq.Base(rng.Intn(4)))
			case r < 0.020:
				q = append(q, seq.Base((seq.Code(b)+1+rng.Intn(3))%4))
			default:
				q = append(q, b)
			}
		}
		fit, ok := Fit(truth, q, 0, 32, sc)
		if !ok {
			t.Fatalf("trial %d: fit failed", trial)
		}
		glob := Global(q, truth, sc)
		if d := fit.Identity() - glob.Identity(); d < -0.02 || d > 0.02 {
			t.Errorf("trial %d: fit identity %.4f vs global %.4f", trial, fit.Identity(), glob.Identity())
		}
	}
}

// TestFitOpsConsistent: walking the ops must consume exactly the
// reported spans.
func TestFitOpsConsistent(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		ref := make([]byte, 100+rng.Intn(100))
		for i := range ref {
			ref[i] = seq.Base(rng.Intn(4))
		}
		off := rng.Intn(40)
		end := off + 40 + rng.Intn(len(ref)-off-40)
		q := append([]byte(nil), ref[off:end]...)
		r, ok := Fit(ref, q, off, 16, sc)
		if !ok {
			t.Fatalf("trial %d: fit failed", trial)
		}
		ai, bi := r.AStart, r.BStart
		for _, op := range r.Ops {
			switch op {
			case OpM:
				ai++
				bi++
			case OpX:
				ai++
			case OpY:
				bi++
			}
		}
		if ai != r.AEnd || bi != r.BEnd {
			t.Fatalf("trial %d: ops consume (%d,%d), spans end (%d,%d)", trial, ai, bi, r.AEnd, r.BEnd)
		}
		if r.BStart != 0 || r.BEnd != len(q) {
			t.Fatalf("trial %d: query not fully consumed: [%d,%d) of %d", trial, r.BStart, r.BEnd, len(q))
		}
	}
}

// fitCase is one Fit input.
type fitCase struct {
	ref, query  []byte
	diag0, band int
}

// randFitCase draws a query that is a mutated window of the reference
// (or, one time in five, unrelated to it), with masked bytes on either
// side, a band of 0–40 and diag0 anywhere from well before the
// reference to past its end. Some queries are longer than the
// reference and some are a single base.
func randFitCase(rng *rand.Rand) fitCase {
	mask := func(s []byte) {
		for k := rng.Intn(4); k > 0 && len(s) > 0; k-- {
			s[rng.Intn(len(s))] = seq.Masked
		}
	}
	ref := make([]byte, rng.Intn(300))
	for i := range ref {
		ref[i] = seq.Base(rng.Intn(4))
	}
	var q []byte
	switch {
	case rng.Intn(8) == 0:
		q = []byte{seq.Base(rng.Intn(4))}
	case rng.Intn(5) == 0 || len(ref) == 0:
		q = make([]byte, 1+rng.Intn(400))
		for i := range q {
			q[i] = seq.Base(rng.Intn(4))
		}
	default:
		at := rng.Intn(len(ref))
		for _, b := range ref[at:min(at+1+rng.Intn(len(ref)+100), len(ref))] {
			switch r := rng.Float64(); {
			case r < 0.02: // deletion
			case r < 0.04:
				q = append(q, b, seq.Base(rng.Intn(4)))
			case r < 0.07:
				q = append(q, seq.Base(rng.Intn(4)))
			default:
				q = append(q, b)
			}
		}
		if len(q) == 0 {
			q = append(q, 'A')
		}
	}
	mask(ref)
	mask(q)
	return fitCase{ref, q, rng.Intn(len(ref)+120) - 60, rng.Intn(41)}
}

// TestFitMatchesOracle holds the pooled rolling-row Fit to the
// full-matrix oracle it replaced: every (Result, ok) must be equal.
func TestFitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sc := DefaultScoring()
	fits := 0
	for k := 0; k < 20000; k++ {
		c := randFitCase(rng)
		got, gotOK := Fit(c.ref, c.query, c.diag0, c.band, sc)
		want, wantOK := oracleFit(c.ref, c.query, c.diag0, c.band, sc)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d %+v: got %+v %v, oracle %+v %v", k, c, got, gotOK, want, wantOK)
		}
		if gotOK {
			fits++
		}
	}
	if fits < 5000 {
		t.Errorf("only %d of 20000 cases fit: the comparison is mostly of failures", fits)
	}
}

// TestFitAllocatesOnlyOps: in steady state a Fit that succeeds
// allocates its returned Ops and nothing else, and one that fails
// allocates nothing.
func TestFitAllocatesOnlyOps(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(11))
	ref := make([]byte, 760)
	for i := range ref {
		ref[i] = seq.Base(rng.Intn(4))
	}
	q := append([]byte(nil), ref[30:730]...)
	sc := DefaultScoring()
	for _, c := range []struct {
		diag0 int
		max   float64
	}{{30, 1}, {400, 0}} {
		run := func() { Fit(ref, q, c.diag0, 36, sc) }
		run() // warm the pool
		if n := testing.AllocsPerRun(200, run); n > c.max {
			t.Errorf("Fit at diag0 %d allocates %.1f times per call in steady state, want ≤ %.0f", c.diag0, n, c.max)
		}
	}
}

// fuzzFitCase decodes fuzz bytes into a Fit input: a header (band,
// diag0, reference length) and then the bases. A body byte maps onto
// ACGT or a masked N; in the query, a byte with its top two bits set
// copies the reference base on the query's own diagonal instead, so
// arbitrary input still holds fits. A signed diag0 byte and references
// of at most 255 bases reach the band's edges: the j = 0 column, rows
// past the reference's end, diag0 off either end and band ≥
// len(reference).
func fuzzFitCase(data []byte) fitCase {
	if len(data) < 3 {
		return fitCase{}
	}
	band, diag0 := int(data[0])%64, int(int8(data[1]))
	body := data[3:]
	nref := min(int(data[2]), len(body))
	ref := make([]byte, nref)
	for i, c := range body[:nref] {
		ref[i] = "ACGTACGTACGTACGN"[c&15]
	}
	q := make([]byte, len(body)-nref)
	for i, c := range body[nref:] {
		q[i] = "ACGTACGTACGTACGN"[c&15]
		if j := i + diag0; c >= 0xc0 && j >= 0 && j < nref {
			q[i] = ref[j]
		}
	}
	return fitCase{ref, q, diag0, band}
}

// FuzzFitMatchesOracle holds Fit to oracleFit on whatever bytes the
// fuzzer finds; the seeds live in testdata/fuzz/FuzzFitMatchesOracle.
func FuzzFitMatchesOracle(f *testing.F) {
	sc := DefaultScoring()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzFitCase(data)
		got, gotOK := Fit(c.ref, c.query, c.diag0, c.band, sc)
		want, wantOK := oracleFit(c.ref, c.query, c.diag0, c.band, sc)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: got %+v %v, oracle %+v %v", c, got, gotOK, want, wantOK)
		}
	})
}
