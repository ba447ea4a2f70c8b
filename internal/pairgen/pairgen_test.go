package pairgen

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/suffixtree"
)

func storeAccess(st *seq.Store) suffixtree.Access {
	return func(sid int32) []byte { return st.Seq(int(sid)) }
}

func buildTree(st *seq.Store, w int) *suffixtree.Tree {
	acc := storeAccess(st)
	sids := make([]int32, st.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	return suffixtree.Build(acc, suffixtree.EnumerateSuffixes(acc, sids, w), w)
}

func makeStore(bases ...string) *seq.Store {
	frags := make([]*seq.Fragment, len(bases))
	for i, b := range bases {
		frags[i] = &seq.Fragment{Name: fmt.Sprintf("f%d", i), Bases: []byte(b)}
	}
	return seq.NewStore(frags)
}

func randomFrags(rng *rand.Rand, n, minLen, maxLen int, maskProb float64) []string {
	out := make([]string, n)
	for i := range out {
		l := minLen + rng.Intn(maxLen-minLen+1)
		b := make([]byte, l)
		for j := range b {
			if rng.Float64() < maskProb {
				b[j] = seq.Masked
			} else {
				b[j] = seq.Base(rng.Intn(4))
			}
		}
		out[i] = string(b)
	}
	return out
}

type pairKey struct{ a, b int32 }
type matchRec struct{ apos, bpos, l int32 }

// bruteMaximalMatches enumerates every maximal match of length ≥ psi
// between canonical sequence pairs, directly from the definition.
func bruteMaximalMatches(st *seq.Store, psi int) map[pairKey][]matchRec {
	out := make(map[pairKey][]matchRec)
	n := int32(st.N())
	num := int32(st.NumSeqs())
	for sa := int32(0); sa < num; sa++ {
		for sb := sa + 1; sb < num; sb++ {
			a, b := sa, sb
			fa, fb := a%n, b%n
			if fa == fb {
				continue
			}
			if fa < fb {
				if a >= n {
					continue
				}
			} else {
				if b >= n {
					continue
				}
				a, b = b, a
			}
			u, v := st.Seq(int(a)), st.Seq(int(b))
			for i := 0; i < len(u); i++ {
				for j := 0; j < len(v); j++ {
					if u[i] != v[j] || !seq.IsBase(u[i]) {
						continue
					}
					// Left-maximality under masking semantics.
					if i > 0 && j > 0 && u[i-1] == v[j-1] && seq.IsBase(u[i-1]) {
						continue
					}
					l := 0
					for i+l < len(u) && j+l < len(v) && u[i+l] == v[j+l] && seq.IsBase(u[i+l]) {
						l++
					}
					if l >= psi {
						out[pairKey{a, b}] = append(out[pairKey{a, b}],
							matchRec{int32(i), int32(j), int32(l)})
					}
				}
			}
		}
	}
	return out
}

func collect(tree *suffixtree.Tree, cfg Config) ([]Pair, Stats) {
	var pairs []Pair
	st := Generate(tree, cfg, func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	return pairs, st
}

func sortRecs(rs []matchRec) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].apos != rs[j].apos {
			return rs[i].apos < rs[j].apos
		}
		if rs[i].bpos != rs[j].bpos {
			return rs[i].bpos < rs[j].bpos
		}
		return rs[i].l < rs[j].l
	})
}

// TestMatchesBruteForce is the central correctness test: without
// duplicate elimination the generator must emit exactly the set of
// maximal matches of length ≥ ψ (Lemma 1), once each.
func TestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		maskProb := []float64{0, 0.04}[trial%2]
		frags := randomFrags(rng, 4+rng.Intn(4), 20, 45, maskProb)
		st := makeStore(frags...)
		w := 3
		psi := 4 + rng.Intn(3)
		tree := buildTree(st, w)
		pairs, _ := collect(tree, Config{Psi: psi, NumFragments: st.N()})

		got := make(map[pairKey][]matchRec)
		for _, p := range pairs {
			got[pairKey{p.ASid, p.BSid}] = append(got[pairKey{p.ASid, p.BSid}],
				matchRec{p.APos, p.BPos, p.MatchLen})
		}
		want := bruteMaximalMatches(st, psi)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pair keys, want %d", trial, len(got), len(want))
		}
		for k, ws := range want {
			gs := got[k]
			if len(gs) != len(ws) {
				t.Fatalf("trial %d key %v: %d matches, want %d\ngot %v\nwant %v",
					trial, k, len(gs), len(ws), gs, ws)
			}
			sortRecs(gs)
			sortRecs(ws)
			for i := range ws {
				if gs[i] != ws[i] {
					t.Fatalf("trial %d key %v: match %d = %v, want %v", trial, k, i, gs[i], ws[i])
				}
			}
		}
	}
}

// TestDecreasingOrder verifies the on-demand sorted-order property
// (step S2): emitted match lengths never increase.
func TestDecreasingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	frags := randomFrags(rng, 8, 30, 60, 0.02)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	pairs, _ := collect(tree, Config{Psi: 5, NumFragments: st.N()})
	if len(pairs) == 0 {
		t.Skip("no pairs in random input")
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].MatchLen > pairs[i-1].MatchLen {
			t.Fatalf("order violated at %d: %d after %d", i, pairs[i].MatchLen, pairs[i-1].MatchLen)
		}
	}
	for _, p := range pairs {
		if p.MatchLen < 5 {
			t.Fatalf("pair below ψ emitted: %+v", p)
		}
	}
}

// TestAnchorsAreRealMatches verifies each emitted anchor is a genuine
// exact match of the claimed length in the claimed orientation.
func TestAnchorsAreRealMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	frags := randomFrags(rng, 6, 30, 60, 0.03)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	pairs, _ := collect(tree, Config{Psi: 5, NumFragments: st.N()})
	for _, p := range pairs {
		a := st.Seq(int(p.ASid))
		b := st.Seq(int(p.BSid))
		for k := int32(0); k < p.MatchLen; k++ {
			ca, cb := a[p.APos+k], b[p.BPos+k]
			if ca != cb || !seq.IsBase(ca) {
				t.Fatalf("anchor not an exact unmasked match: %+v at offset %d", p, k)
			}
		}
	}
}

func TestCanonicalOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	frags := randomFrags(rng, 6, 30, 60, 0)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	pairs, _ := collect(tree, Config{Psi: 5, NumFragments: st.N()})
	n := int32(st.N())
	for _, p := range pairs {
		fa, fb := p.ASid%n, p.BSid%n
		if fa == fb {
			t.Fatalf("self pair emitted: %+v", p)
		}
		lo := fa
		loSid := p.ASid
		if fb < fa {
			lo, loSid = fb, p.BSid
		}
		if loSid >= n {
			t.Fatalf("non-canonical pair: lower fragment %d is reverse-complemented: %+v", lo, p)
		}
	}
}

// TestOverlappingReadsPlanted plants two reads sampled from one region
// on opposite strands and checks the pair is found with the full
// overlap as the longest match.
func TestOverlappingReadsPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	genome := make([]byte, 120)
	for i := range genome {
		genome[i] = seq.Base(rng.Intn(4))
	}
	readA := string(genome[:80])                           // forward
	readB := string(seq.ReverseComplement(genome[40:120])) // reverse strand
	st := makeStore(readA, readB)
	tree := buildTree(st, 8)
	pairs, _ := collect(tree, Config{Psi: 12, NumFragments: st.N()})
	best := int32(0)
	for _, p := range pairs {
		if p.MatchLen > best {
			best = p.MatchLen
			// Fragment 0 forward must pair with fragment 1 reverse.
			if p.ASid != 0 || p.BSid != 3 {
				t.Fatalf("unexpected orientation: %+v", p)
			}
		}
	}
	// The true overlap is genome[40:80]: 40 bases (up to random repeats).
	if best < 40 {
		t.Fatalf("longest match %d < planted overlap 40", best)
	}
}

// TestDuplicateElimination checks the §5 variant: same fragment-pair
// coverage, same maximum match length per pair, no more emissions than
// distinct maximal matches.
func TestDuplicateElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		// Repeat-heavy input to force duplicate matches: build
		// fragments by stitching repeated motifs.
		motifs := randomFrags(rng, 3, 10, 14, 0)
		frags := make([]string, 5)
		for i := range frags {
			s := ""
			for k := 0; k < 4; k++ {
				s += motifs[rng.Intn(len(motifs))]
			}
			frags[i] = s
		}
		st := makeStore(frags...)
		psi := 6
		tree := buildTree(st, 4)

		full, _ := collect(tree, Config{Psi: psi, NumFragments: st.N()})
		dedup, _ := collect(tree, Config{Psi: psi, NumFragments: st.N(), DuplicateElimination: true})

		type agg struct {
			count  int
			maxLen int32
		}
		group := func(ps []Pair) map[pairKey]agg {
			m := make(map[pairKey]agg)
			for _, p := range ps {
				k := pairKey{p.ASid, p.BSid}
				a := m[k]
				a.count++
				if p.MatchLen > a.maxLen {
					a.maxLen = p.MatchLen
				}
				m[k] = a
			}
			return m
		}
		gf, gd := group(full), group(dedup)
		if len(gf) != len(gd) {
			t.Fatalf("trial %d: dedup covers %d pairs, full covers %d", trial, len(gd), len(gf))
		}
		for k, af := range gf {
			ad, ok := gd[k]
			if !ok {
				t.Fatalf("trial %d: pair %v missing under dedup", trial, k)
			}
			if ad.maxLen != af.maxLen {
				t.Fatalf("trial %d: pair %v max len %d != %d", trial, k, ad.maxLen, af.maxLen)
			}
			if ad.count > af.count {
				t.Fatalf("trial %d: pair %v dedup count %d > full %d", trial, k, ad.count, af.count)
			}
		}
	}
}

func TestDedupReducesEmissionsOnRepeats(t *testing.T) {
	// A shared tandem repeat produces many duplicate generations that
	// the dedup variant must cut down.
	motif := "ACGTTGCAGT"
	a, b := "", ""
	for i := 0; i < 6; i++ {
		a += motif
		b += motif
	}
	st := makeStore(a, b)
	tree := buildTree(st, 4)
	full, _ := collect(tree, Config{Psi: 6, NumFragments: st.N()})
	dedup, _ := collect(tree, Config{Psi: 6, NumFragments: st.N(), DuplicateElimination: true})
	if len(dedup) >= len(full) {
		t.Errorf("dedup %d not fewer than full %d on tandem repeats", len(dedup), len(full))
	}
	if len(dedup) == 0 {
		t.Error("dedup emitted nothing")
	}
}

func TestPsiBelowWPanics(t *testing.T) {
	st := makeStore("ACGTACGTACGT")
	tree := buildTree(st, 6)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ψ < w")
		}
	}()
	Generate(tree, Config{Psi: 4, NumFragments: 1}, func(Pair) bool { return true })
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	frags := randomFrags(rng, 8, 40, 60, 0)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	count := 0
	Generate(tree, Config{Psi: 4, NumFragments: st.N()}, func(Pair) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop delivered %d pairs", count)
	}
}

// sweepOf is a sweep over forests, each one segment costing 1, that
// counts in built how many it has built.
func sweepOf(built *int, forests ...*suffixtree.Tree) Sweep {
	return func(add func(*suffixtree.Tree), end func(float64) bool) bool {
		for _, t := range forests {
			*built++
			add(t)
			if !end(1) {
				return false
			}
		}
		return true
	}
}

func TestStreamMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	frags := randomFrags(rng, 8, 30, 60, 0.02)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	cfg := Config{Psi: 5, NumFragments: st.N()}
	want, _ := collect(tree, cfg)

	var built int
	s := NewSweep(sweepOf(&built, tree), cfg)
	defer s.Close()
	var got []Pair
	var cost float64
	for {
		batch, c := s.Take(nil, 7)
		got, cost = append(got, batch...), cost+c
		if len(batch) < 7 {
			break
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("stream delivered %d pairs unlike the push's %d", len(got), len(want))
	}
	if cost != 1 {
		t.Errorf("a drained one-forest stream charged %g, want 1", cost)
	}
}

// TestStreamCloseEarly: a forest is built by the pull that needs it and
// charged by that pull, Close stops the sweep at once, may be called
// again and after the end, and leaves no goroutine behind.
func TestStreamCloseEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	frags := randomFrags(rng, 10, 40, 70, 0)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	empty := buildTree(makeStore("NNNNNNNNNNNNNNNNNNNN"), 4)
	cfg := Config{Psi: 4, NumFragments: st.N()}

	var built int
	NewSweep(sweepOf(&built, tree), cfg).Close()
	if built != 0 {
		t.Fatalf("closing before any pull built %d forests", built)
	}

	built = 0
	s := NewSweep(sweepOf(&built, empty, tree, tree), cfg)
	if got, cost := s.Take(nil, 3); len(got) != 3 || cost != 2 || built != 2 {
		t.Fatalf("first Take: %d pairs, cost %g, %d forests built; want 3, 2, 2", len(got), cost, built)
	}
	if got, cost := s.Take(nil, 1); len(got) != 1 || cost != 0 {
		t.Fatalf("second Take: %d pairs, cost %g; want 1, 0", len(got), cost)
	}
	s.Close()
	s.Close()
	if built != 2 {
		t.Fatalf("Close let the sweep build %d forests", built)
	}

	built = 0
	s = NewSweep(sweepOf(&built, tree, empty), cfg)
	if _, cost := s.Take(nil, math.MaxInt); cost != 2 || built != 2 {
		t.Fatalf("draining: cost %g, %d forests built; want 2, 2", cost, built)
	}
	if got, cost := s.Take(nil, 1); len(got) != 0 || cost != 0 {
		t.Fatalf("Take after the end: %d pairs, cost %g", len(got), cost)
	}
	s.Close()
	s.Close()

	if n := pairgenGoroutines(); n != 0 {
		t.Fatalf("%d goroutines still run pairgen code after closing every stream", n)
	}
}

// pairgenGoroutines counts the goroutines, other than the caller,
// with a pairgen frame on their stack. Goroutines of other packages
// come and go while a test runs, so a total count proves nothing.
func pairgenGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's own stack comes first and holds this test's frames.
	stacks := strings.Split(string(buf), "\n\n")[1:]
	count := 0
	for _, st := range stacks {
		if strings.Contains(st, "repro/internal/pairgen.") {
			count++
		}
	}
	return count
}

func TestMaskedRegionsBlockPairs(t *testing.T) {
	// Identical fragments fully masked must generate nothing.
	masked := "NNNNNNNNNNNNNNNNNNNN"
	st := makeStore(masked, masked)
	tree := buildTree(st, 4)
	pairs, _ := collect(tree, Config{Psi: 4, NumFragments: st.N()})
	if len(pairs) != 0 {
		t.Errorf("masked fragments generated %d pairs", len(pairs))
	}
}

func TestStatsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	frags := randomFrags(rng, 6, 30, 50, 0)
	st := makeStore(frags...)
	tree := buildTree(st, 4)
	pairs, stats := collect(tree, Config{Psi: 5, NumFragments: st.N()})
	if stats.Emitted != int64(len(pairs)) {
		t.Errorf("Emitted = %d, want %d", stats.Emitted, len(pairs))
	}
	if stats.NodesVisited == 0 {
		t.Error("NodesVisited = 0")
	}
}

// checkMatchesReference holds Generate to referenceGenerate on one
// forest: the same pairs in the same order and the same Stats, run to
// the end and stopped after stopAt pairs (0: not stopped).
func checkMatchesReference(t *testing.T, tree *suffixtree.Tree, cfg Config, stopAt int) {
	t.Helper()
	run := func(gen func(*suffixtree.Tree, Config, func(Pair) bool) Stats) ([]Pair, Stats) {
		var pairs []Pair
		st := gen(tree, cfg, func(p Pair) bool {
			pairs = append(pairs, p)
			return len(pairs) != stopAt
		})
		return pairs, st
	}
	want, wantStats := run(referenceGenerate)
	for _, sp := range splits {
		var got []Pair
		var gotStats Stats
		sp.run(func() { got, gotStats = run(Generate) })
		if !slices.Equal(got, want) || gotStats != wantStats {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%v: %+v stop %d: %d pairs %+v, reference %d pairs %+v; first difference at %d",
				sp, cfg, stopAt, len(got), gotStats, len(want), wantStats, i)
		}
	}
}

// split is one way of running Generate: on procs cores, handing a
// goroutine no fewer than minChunk nodes of the first pass.
type split struct{ procs, minChunk int }

// splits are the ways the identity tests generate every stream: on one
// core, on four at the product's chunk minimum, and on four with every
// forest of two or more nodes split.
var splits = []split{{1, 0}, {4, 0}, {4, 1}}

func (sp split) String() string {
	return fmt.Sprintf("GOMAXPROCS %d, min chunk %d", sp.procs, sp.minChunk)
}

// run calls fn with GOMAXPROCS and minChunkNodes set (0: the product's
// minimum), then restores both.
func (sp split) run(fn func()) {
	defer func(procs, minChunk int) {
		runtime.GOMAXPROCS(procs)
		minChunkNodes = minChunk
	}(runtime.GOMAXPROCS(sp.procs), minChunkNodes)
	if sp.minChunk > 0 {
		minChunkNodes = sp.minChunk
	}
	fn()
}

// TestGenerateMatchesReference: on random masked inputs, some built of
// repeated motifs so that duplicate elimination drops suffixes, the
// two-pass generator yields the reference's stream and Stats with
// duplicate elimination on and off, with ψ = w and ψ > w, run to the
// end and stopped after a random number of pairs, in every one of
// splits. The last trial shotguns a genome into a forest that the
// first pass splits at its own chunk minimum on four cores.
func TestGenerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial <= 60; trial++ {
		var frags []string
		if trial == 60 {
			frags = shotgunFrags(rng)
		} else if trial%2 == 0 {
			frags = randomFrags(rng, 3+rng.Intn(8), 15, 80, []float64{0, 0.03}[trial/2%2])
		} else {
			motifs := randomFrags(rng, 2+rng.Intn(3), 6, 14, 0.02)
			frags = make([]string, 3+rng.Intn(6))
			for i := range frags {
				for k := 0; k < 2+rng.Intn(5); k++ {
					frags[i] += motifs[rng.Intn(len(motifs))]
				}
			}
		}
		st := makeStore(frags...)
		w := 2 + rng.Intn(4)
		if trial == 60 {
			w = 8
		}
		tree := buildTree(st, w)
		if trial == 60 && tree.NumNodes() < 4*minChunkNodes {
			t.Fatalf("%d nodes: the first pass does not split in four; weak test", tree.NumNodes())
		}
		for _, psi := range []int{w, w + 1 + rng.Intn(4)} {
			for _, dedup := range []bool{false, true} {
				cfg := Config{Psi: psi, NumFragments: st.N(), DuplicateElimination: dedup}
				all, _ := collect(tree, cfg)
				checkMatchesReference(t, tree, cfg, 0)
				if len(all) > 0 {
					checkMatchesReference(t, tree, cfg, 1+rng.Intn(len(all)))
				}
			}
		}
	}
}

// shotgunFrags samples 60 reads of 200–300 bases from a 3 kbp genome:
// at w = 8, a forest the first pass splits in four at its own chunk
// minimum.
func shotgunFrags(rng *rand.Rand) []string {
	genome := randomFrags(rng, 1, 3000, 3000, 0.002)[0]
	var frags []string
	for range 60 {
		at := rng.Intn(len(genome) - 300)
		frags = append(frags, genome[at:at+200+rng.Intn(100)])
	}
	return frags
}

// TestNonPreorderForestPanicsOnCaller: a forest one of whose buckets
// is numbered root last makes Generate panic with its preorder message
// on the calling goroutine, where a deferred recover contains it, when
// the first pass runs on one core and when it is split, so a bad
// forest cannot kill the process from a pool goroutine.
func TestNonPreorderForestPanicsOnCaller(t *testing.T) {
	st := makeStore(shotgunFrags(rand.New(rand.NewSource(52)))...)
	tree := buildTree(st, 8)
	// Renumber the last bucket with an internal root in reverse.
	a := len(tree.Roots) - 1
	for tree.IsLeaf(tree.Roots[a]) {
		a--
	}
	lo, hi := tree.Roots[a], int32(tree.NumNodes())
	if a+1 < len(tree.Roots) {
		hi = tree.Roots[a+1]
	}
	bad := tree.Clone()
	re := func(id int32) int32 {
		if id >= lo && id < hi {
			return lo + hi - 1 - id
		}
		return id
	}
	for id := lo; id < hi; id++ {
		n := tree.Nodes[id]
		n.Parent, n.FirstChild, n.NextSib = re(n.Parent), re(n.FirstChild), re(n.NextSib)
		bad.Nodes[re(id)] = n
	}
	bad.Roots[a] = re(bad.Roots[a])
	cfg := Config{Psi: 10, NumFragments: st.N(), DuplicateElimination: true}
	for _, sp := range splits {
		var recovered any
		sp.run(func() {
			defer func() { recovered = recover() }()
			Generate(bad, cfg, func(Pair) bool { return true })
		})
		if recovered != "pairgen: forest nodes are not numbered in preorder" {
			t.Fatalf("%v: recovered %v, want the preorder panic", sp, recovered)
		}
	}
}

// FuzzGenerateMatchesReference holds Generate to referenceGenerate on
// arbitrary reads. A data byte is a base (0–3 mod 4), a mask (0xe8–
// 0xf7) or a read break (0xf8–0xff); shape%8 + 1 is w, shape>>3%4
// what ψ adds to it, shape ≥ 0x80 turns on duplicate elimination, and
// a non-zero stop stops generation after that many pairs.
func FuzzGenerateMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x00\x01\x02\x03\xff\x00\x01\x02\x03\x00\x01"), uint8(0x82), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shape, stop uint8) {
		if len(data) > 600 {
			return
		}
		reads := []string{""}
		for _, b := range data {
			switch {
			case b >= 0xf8:
				reads = append(reads, "")
			case b >= 0xe8:
				reads[len(reads)-1] += "N"
			default:
				reads[len(reads)-1] += string(seq.Base(int(b & 3)))
			}
		}
		st := makeStore(reads...)
		w := 1 + int(shape%8)
		cfg := Config{Psi: w + int(shape>>3%4), NumFragments: st.N(), DuplicateElimination: shape >= 0x80}
		checkMatchesReference(t, buildTree(st, w), cfg, int(stop))
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus of
// FuzzGenerateMatchesReference (run explicitly with
// WRITE_FUZZ_CORPUS=1; skipped otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzGenerateMatchesReference")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	read := strings.NewReplacer("A", "\x00", "C", "\x01", "G", "\x02", "T", "\x03", "N", "\xe8", "|", "\xff").Replace
	write := func(name, reads string, shape, stop uint8) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte(%q)\nbyte(%q)\n", read(reads), shape, stop)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-empty", "", 0x02, 0)
	write("seed-tandem-repeat-dedup", "ACGTTGCAGTACGTTGCAGTACGTTGCAGT|ACGTTGCAGTACGTTGCAGT", 0x83, 0)
	write("seed-tandem-repeat-stopped", "ACGTTGCAGTACGTTGCAGTACGTTGCAGT|ACGTTGCAGTACGTTGCAGT", 0x8b, 5)
	write("seed-masks-split-matches", "ACGTANCGGATTACA|TTACGTANCGGATTACAG|CGGATNTACAACGTA", 0x93, 0)
	write("seed-psi-above-w", "GATTACAGATTACCAGT|CCGATTACAGATTACCA|AGATTACAGATTGG", 0x1a, 0)
	write("seed-identical-reads", "ACGGTCATTGCA|ACGGTCATTGCA|ACGGTCATTGCA|TGCAATGACCGT", 0x84, 3)
	write("seed-lambda-only-leaf", "ACGTAC|ACGTAC|NACGTAC|NNACGTAC", 0x05, 0)
	write("seed-masked-only-reads", "NNNN|N|NNNNNNNNNNNN|ACGTTGCAACGT|NN", 0x02, 0)
}
