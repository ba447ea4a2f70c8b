package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomDNA returns n random unambiguous bases from rng.
func randomDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = Base(rng.Intn(4))
	}
	return s
}

func TestCodeBaseRoundTrip(t *testing.T) {
	for c := 0; c < 4; c++ {
		if got := Code(Base(c)); got != c {
			t.Errorf("Code(Base(%d)) = %d", c, got)
		}
	}
	for _, b := range []byte{'N', 'n', 'x', '-', 0} {
		if Code(b) != -1 {
			t.Errorf("Code(%q) = %d, want -1", b, Code(b))
		}
	}
}

func TestComplementPairs(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C'}
	for b, want := range pairs {
		if got := Complement(b); got != want {
			t.Errorf("Complement(%c) = %c, want %c", b, got, want)
		}
	}
	if Complement('N') != Masked || Complement('z') != Masked {
		t.Error("non-bases must complement to Masked")
	}
}

func TestReverseComplementKnown(t *testing.T) {
	got := ReverseComplement([]byte("ACGTN"))
	if string(got) != "NACGT" {
		t.Errorf("ReverseComplement(ACGTN) = %s", got)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := Clean(raw)
		return bytes.Equal(ReverseComplement(ReverseComplement(s)), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := randomDNA(rng, rng.Intn(64))
		want := ReverseComplement(s)
		got := append([]byte(nil), s...)
		ReverseComplementInPlace(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("in-place RC mismatch for %s", s)
		}
	}
}

func TestClean(t *testing.T) {
	got := Clean([]byte("acgtACGT-nxN"))
	if string(got) != "ACGTACGTNNNN" {
		t.Errorf("Clean = %s", got)
	}
}

func TestCountUnmaskedAndFraction(t *testing.T) {
	s := []byte("ACGNNACG")
	if CountUnmasked(s) != 6 {
		t.Errorf("CountUnmasked = %d", CountUnmasked(s))
	}
	if f := MaskedFraction(s); f != 0.25 {
		t.Errorf("MaskedFraction = %g", f)
	}
	if MaskedFraction(nil) != 0 {
		t.Error("MaskedFraction(nil) should be 0")
	}
}

func TestPackUnpackKmer(t *testing.T) {
	s := []byte("ACGTACGTGGCA")
	for k := 1; k <= 8; k++ {
		for i := 0; i+k <= len(s); i++ {
			km, ok := PackKmer(s, i, k)
			if !ok {
				t.Fatalf("PackKmer(%d,%d) failed", i, k)
			}
			if got := UnpackKmer(km, k); !bytes.Equal(got, s[i:i+k]) {
				t.Fatalf("roundtrip k=%d i=%d: %s != %s", k, i, got, s[i:i+k])
			}
		}
	}
}

func TestPackKmerRejectsMaskedAndBounds(t *testing.T) {
	s := []byte("ACGNACG")
	if _, ok := PackKmer(s, 2, 3); ok {
		t.Error("window with N must fail")
	}
	if _, ok := PackKmer(s, 5, 3); ok {
		t.Error("out-of-bounds window must fail")
	}
	if _, ok := PackKmer(s, -1, 3); ok {
		t.Error("negative start must fail")
	}
}

func TestKmerNumericOrderIsLexicographic(t *testing.T) {
	a, _ := PackKmer([]byte("AACG"), 0, 4)
	b, _ := PackKmer([]byte("AACT"), 0, 4)
	c, _ := PackKmer([]byte("CAAA"), 0, 4)
	if !(a < b && b < c) {
		t.Errorf("order violated: %d %d %d", a, b, c)
	}
}

func TestKmerRCInvolutionAndCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(16)
		s := randomDNA(rng, k)
		km, _ := PackKmer(s, 0, k)
		rc := KmerRC(km, k)
		if got := UnpackKmer(rc, k); !bytes.Equal(got, ReverseComplement(s)) {
			t.Fatalf("KmerRC(%s) = %s, want %s", s, got, ReverseComplement(s))
		}
		if KmerRC(rc, k) != km {
			t.Fatal("KmerRC not an involution")
		}
		can := CanonicalKmer(km, k)
		if can != CanonicalKmer(rc, k) {
			t.Fatal("canonical differs between strands")
		}
		if can > km || can > rc {
			t.Fatal("canonical not the minimum")
		}
	}
}

func TestEachKmerSkipsMasked(t *testing.T) {
	s := []byte("ACGTNACGT")
	var positions []int
	EachKmer(s, 3, func(pos int, km Kmer) {
		positions = append(positions, pos)
		if got := UnpackKmer(km, 3); !bytes.Equal(got, s[pos:pos+3]) {
			t.Errorf("pos %d: kmer %s != window %s", pos, got, s[pos:pos+3])
		}
	})
	want := []int{0, 1, 5, 6}
	if len(positions) != len(want) {
		t.Fatalf("positions = %v, want %v", positions, want)
	}
	for i := range want {
		if positions[i] != want[i] {
			t.Fatalf("positions = %v, want %v", positions, want)
		}
	}
}

func TestEachKmerDegenerate(t *testing.T) {
	called := false
	EachKmer([]byte("ACG"), 4, func(int, Kmer) { called = true })
	EachKmer([]byte("ACG"), 0, func(int, Kmer) { called = true })
	EachKmer(nil, 3, func(int, Kmer) { called = true })
	if called {
		t.Error("EachKmer must not emit on degenerate input")
	}
}

func TestFASTARoundTrip(t *testing.T) {
	in := []Record{
		{Name: "frag1 description", Bases: []byte("ACGTACGTACGTACGTACGTACGTACGT")},
		{Name: "frag2", Bases: []byte("TTTT")},
		{Name: "empty", Bases: nil},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, in, 10); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Name != in[i].Name {
			t.Errorf("record %d name %q != %q", i, out[i].Name, in[i].Name)
		}
		if !bytes.Equal(out[i].Bases, in[i].Bases) {
			t.Errorf("record %d bases %s != %s", i, out[i].Bases, in[i].Bases)
		}
	}
}

func TestReadFASTALowercaseAndWhitespace(t *testing.T) {
	in := ">a\nacg t\n\nTT\n"
	recs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Interior space survives TrimSpace only at line ends; "acg t" keeps
	// the space which Clean masks.
	if len(recs) != 1 || string(recs[0].Bases) != "ACGNTTT" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestReadFASTAErrorsOnLeadingSequence(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n>a\n")); err == nil {
		t.Error("expected error for sequence before header")
	}
}

func TestStoreIndexing(t *testing.T) {
	frags := []*Fragment{
		{Name: "f0", Bases: []byte("ACGT")},
		{Name: "f1", Bases: []byte("GGGC")},
		{Name: "f2", Bases: []byte("TTAA")},
	}
	st := NewStore(frags)
	if st.N() != 3 || st.NumSeqs() != 6 || st.TotalBases() != 12 {
		t.Fatalf("store dims: N=%d NumSeqs=%d Total=%d", st.N(), st.NumSeqs(), st.TotalBases())
	}
	for i := 0; i < 3; i++ {
		if st.Fragment(i).ID != i {
			t.Errorf("fragment %d has ID %d", i, st.Fragment(i).ID)
		}
		if !bytes.Equal(st.Seq(i), frags[i].Bases) {
			t.Errorf("Seq(%d) wrong", i)
		}
		if !bytes.Equal(st.Seq(i+3), ReverseComplement(frags[i].Bases)) {
			t.Errorf("Seq(%d) not the RC", i+3)
		}
		if st.SeqLen(i) != len(frags[i].Bases) || st.SeqLen(i+3) != len(frags[i].Bases) {
			t.Errorf("SeqLen wrong for %d", i)
		}
	}
	if st.FragName(1) != "f1" {
		t.Errorf("FragName: %q", st.FragName(1))
	}
}

func TestStoreFromRecords(t *testing.T) {
	st := StoreFromRecords([]Record{{Name: "a", Bases: []byte("ACGT")}})
	if st.N() != 1 || st.Fragment(0).Name != "a" {
		t.Fatal("StoreFromRecords wrong")
	}
}
