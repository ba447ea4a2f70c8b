package suffixtree

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
)

// storeAccess adapts a seq.Store to the Access interface.
func storeAccess(st *seq.Store) Access {
	return func(sid int32) []byte { return st.Seq(int(sid)) }
}

// shared hands every AddKeyed worker the same concurrency-safe Access.
func shared(acc Access) func(int) Access {
	return func(int) Access { return acc }
}

// split is one way of running AddKeyed: on procs cores, handing a
// worker no fewer than minChunk suffixes.
type split struct{ procs, minChunk int }

// splits are the ways the identity tests build every forest: on one
// core, on four at the product's chunk minimum, and on four with every
// forest of two or more suffixes split.
var splits = []split{{1, 0}, {4, 0}, {4, 1}}

func (sp split) String() string {
	return fmt.Sprintf("GOMAXPROCS %d, min chunk %d", sp.procs, sp.minChunk)
}

// run calls fn with GOMAXPROCS and minChunkSuffixes set (0: the
// product's minimum), then restores both.
func (sp split) run(fn func()) {
	defer func(procs, minChunk int) {
		runtime.GOMAXPROCS(procs)
		minChunkSuffixes = minChunk
	}(runtime.GOMAXPROCS(sp.procs), minChunkSuffixes)
	if sp.minChunk > 0 {
		minChunkSuffixes = sp.minChunk
	}
	fn()
}

func allSids(st *seq.Store) []int32 {
	sids := make([]int32, st.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	return sids
}

func buildStore(bases ...string) *seq.Store {
	frags := make([]*seq.Fragment, len(bases))
	for i, b := range bases {
		frags[i] = &seq.Fragment{Name: fmt.Sprintf("f%d", i), Bases: []byte(b)}
	}
	return seq.NewStore(frags)
}

func randomStore(rng *rand.Rand, n, minLen, maxLen int, maskProb float64) *seq.Store {
	frags := make([]*seq.Fragment, n)
	for i := range frags {
		l := minLen + rng.Intn(maxLen-minLen+1)
		b := make([]byte, l)
		for j := range b {
			if rng.Float64() < maskProb {
				b[j] = seq.Masked
			} else {
				b[j] = seq.Base(rng.Intn(4))
			}
		}
		frags[i] = &seq.Fragment{Name: fmt.Sprintf("r%d", i), Bases: b}
	}
	return seq.NewStore(frags)
}

// lcp computes the longest common prefix of two suffixes under masking
// semantics: comparison stops at any masked byte.
func lcp(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] && seq.IsBase(a[n]) {
		n++
	}
	return n
}

func TestEnumerateSuffixes(t *testing.T) {
	st := buildStore("ACGT")
	sufs := EnumerateSuffixes(storeAccess(st), []int32{0}, 2)
	// Suffixes of length ≥ 2: positions 0..2.
	if len(sufs) != 3 {
		t.Fatalf("got %d suffixes", len(sufs))
	}
	if sufs[0].Prev != PrevNone {
		t.Error("first suffix must be λ class")
	}
	if sufs[1].Prev != int8(seq.Code('A')) || sufs[2].Prev != int8(seq.Code('C')) {
		t.Errorf("prev classes: %d %d", sufs[1].Prev, sufs[2].Prev)
	}
}

func TestEnumerateSuffixesMaskedPrev(t *testing.T) {
	st := buildStore("ANGTC")
	sufs := EnumerateSuffixes(storeAccess(st), []int32{0}, 1)
	// Suffix at pos 2 (G...) is preceded by N → λ class.
	for _, sf := range sufs {
		if sf.Pos == 2 && sf.Prev != PrevNone {
			t.Errorf("masked prev should be λ, got %d", sf.Prev)
		}
	}
}

func TestBuildDropsInvalidWindows(t *testing.T) {
	st := buildStore("ACNGT")
	// w=3: windows at 0 (ACN) and 1 (CNG), 2 (NGT) invalid; no valid
	// window on the forward strand except... none. RC = ACNGT→ACNGT rc
	// is ACNGT reversed-complemented: "ACNGT" → rc "ACNGT"? compute:
	// complement of TGNCA... rc("ACNGT") = "ACNGT" reversed = TGNCA →
	// complement... rc = "ACNGT" → reverse "TGNCA" → complement each of
	// original reversed: rc[i] = comp(s[n-1-i]): comp(T)=A, comp(G)=C,
	// comp(N)=N, comp(C)=G, comp(A)=T → "ACNGT". Also no valid window.
	sufs := EnumerateSuffixes(storeAccess(st), allSids(st), 3)
	tree := Build(storeAccess(st), sufs, 3)
	if len(tree.Roots) != 0 || tree.NumNodes() != 0 {
		t.Errorf("expected empty forest, got %d roots %d nodes", len(tree.Roots), tree.NumNodes())
	}
}

func TestEverySuffixInExactlyOneLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := randomStore(rng, 8, 30, 60, 0.03)
	w := 4
	acc := storeAccess(st)
	sufs := EnumerateSuffixes(acc, allSids(st), w)
	tree := Build(acc, sufs, w)

	want := make(map[[2]int32]bool)
	for _, sf := range sufs {
		if _, ok := BucketKey(acc(sf.Sid), int(sf.Pos), w); ok {
			want[[2]int32{sf.Sid, sf.Pos}] = true
		}
	}
	got := make(map[[2]int32]int)
	for i := range tree.Nodes {
		u := int32(i)
		if !tree.IsLeaf(u) {
			continue
		}
		for _, sf := range tree.LeafSuffixes(u) {
			got[[2]int32{sf.Sid, sf.Pos}]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("leaf suffixes %d != bucketed suffixes %d", len(got), len(want))
	}
	for k, c := range got {
		if c != 1 {
			t.Fatalf("suffix %v appears in %d leaves", k, c)
		}
		if !want[k] {
			t.Fatalf("unexpected suffix %v in tree", k)
		}
	}
}

func checkStructure(t *testing.T, tree *Tree, acc Access) {
	t.Helper()
	for i := range tree.Nodes {
		u := int32(i)
		n := &tree.Nodes[u]
		if n.Parent != NoNode {
			p := &tree.Nodes[n.Parent]
			if n.Depth < p.Depth {
				t.Fatalf("node %d depth %d < parent depth %d", u, n.Depth, p.Depth)
			}
			if !tree.IsLeaf(u) && n.Depth <= p.Depth {
				t.Fatalf("internal node %d depth %d ≤ parent depth %d", u, n.Depth, p.Depth)
			}
		}
		if int(n.Depth) < tree.W {
			t.Fatalf("node %d depth %d below bucket prefix %d", u, n.Depth, tree.W)
		}
		if !tree.IsLeaf(u) {
			// Internal nodes have ≥ 2 children and own no suffixes.
			kids := 0
			tree.Children(u, func(int32) { kids++ })
			if kids < 2 {
				t.Fatalf("internal node %d has %d children", u, kids)
			}
			if n.SufStart != -1 {
				t.Fatalf("internal node %d owns suffixes", u)
			}
		} else {
			sufs := tree.LeafSuffixes(u)
			if len(sufs) == 0 {
				t.Fatalf("leaf %d has no suffixes", u)
			}
			// All suffixes in a leaf share an unmasked prefix of the
			// leaf's depth.
			first := acc(sufs[0].Sid)[sufs[0].Pos:]
			for _, sf := range sufs[1:] {
				s := acc(sf.Sid)[sf.Pos:]
				if lcp(first, s) < int(n.Depth) {
					t.Fatalf("leaf %d: suffixes do not share depth-%d prefix", u, n.Depth)
				}
			}
		}
	}
}

func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		st := randomStore(rng, 4+rng.Intn(8), 20, 80, []float64{0, 0.05}[trial%2])
		w := 3 + rng.Intn(3)
		acc := storeAccess(st)
		sufs := EnumerateSuffixes(acc, allSids(st), w)
		tree := Build(acc, sufs, w)
		checkStructure(t, tree, acc)
	}
}

// TestLCADepthEqualsLCP is the key semantic check: for any two suffixes
// in the same bucket subtree, the string-depth of their lowest common
// ancestor equals their longest common (unmasked) prefix.
func TestLCADepthEqualsLCP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := randomStore(rng, 6, 25, 50, 0.02)
	w := 3
	acc := storeAccess(st)
	sufs := EnumerateSuffixes(acc, allSids(st), w)
	tree := Build(acc, sufs, w)

	// Locate each suffix's leaf and root.
	type loc struct {
		leaf int32
		suf  Suffix
	}
	var locs []loc
	for i := range tree.Nodes {
		u := int32(i)
		if tree.IsLeaf(u) {
			for _, sf := range tree.LeafSuffixes(u) {
				locs = append(locs, loc{u, sf})
			}
		}
	}
	rootOf := func(u int32) int32 {
		for tree.Nodes[u].Parent != NoNode {
			u = tree.Nodes[u].Parent
		}
		return u
	}
	ancestors := func(u int32) []int32 {
		var as []int32
		for v := u; v != NoNode; v = tree.Nodes[v].Parent {
			as = append(as, v)
		}
		return as
	}
	lca := func(a, b int32) int32 {
		seen := make(map[int32]bool)
		for _, v := range ancestors(a) {
			seen[v] = true
		}
		for _, v := range ancestors(b) {
			if seen[v] {
				return v
			}
		}
		return NoNode
	}

	// Group suffixes by root so sampled pairs usually share a bucket.
	byRoot := make(map[int32][]loc)
	for _, l := range locs {
		r := rootOf(l.leaf)
		byRoot[r] = append(byRoot[r], l)
	}
	var pools [][]loc
	for _, pool := range byRoot {
		if len(pool) >= 2 {
			pools = append(pools, pool)
		}
	}
	if len(pools) == 0 {
		t.Fatal("no multi-suffix buckets in test input")
	}
	checked := 0
	for trial := 0; trial < 1500; trial++ {
		var a, b loc
		if trial%3 == 0 {
			// Occasionally cross buckets to exercise the lcp < w branch.
			a = locs[rng.Intn(len(locs))]
			b = locs[rng.Intn(len(locs))]
		} else {
			pool := pools[rng.Intn(len(pools))]
			a = pool[rng.Intn(len(pool))]
			b = pool[rng.Intn(len(pool))]
		}
		if a == b {
			continue
		}
		sa := acc(a.suf.Sid)[a.suf.Pos:]
		sb := acc(b.suf.Sid)[b.suf.Pos:]
		l := lcp(sa, sb)
		sameTree := rootOf(a.leaf) == rootOf(b.leaf)
		if l < w {
			if sameTree {
				t.Fatalf("suffixes with lcp %d < w in same bucket subtree", l)
			}
			continue
		}
		if !sameTree {
			t.Fatalf("suffixes with lcp %d ≥ w in different subtrees", l)
		}
		u := lca(a.leaf, b.leaf)
		if u == NoNode {
			t.Fatal("no LCA within subtree")
		}
		var want int32
		if a.leaf == b.leaf {
			// Same leaf: identical (possibly mask-clamped) suffixes.
			want = tree.Nodes[u].Depth
			if int(want) > l {
				t.Fatalf("leaf depth %d exceeds lcp %d", want, l)
			}
		} else {
			want = int32(l)
			if tree.Nodes[u].Depth != want {
				t.Fatalf("LCA depth %d != lcp %d (suffixes %v %v)",
					tree.Nodes[u].Depth, l, a.suf, b.suf)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d informative pairs checked", checked)
	}
}

func TestNodesByDepthDescOrderAndTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := randomStore(rng, 6, 30, 60, 0.02)
	w := 3
	acc := storeAccess(st)
	tree := Build(acc, EnumerateSuffixes(acc, allSids(st), w), w)
	order := tree.NodesByDepthDesc(w)
	seen := make(map[int32]bool)
	prevDepth := int32(1 << 30)
	prevLeaf := true
	for _, u := range order {
		d := tree.Nodes[u].Depth
		if d > prevDepth {
			t.Fatal("depth order violated")
		}
		if d == prevDepth && tree.IsLeaf(u) && !prevLeaf {
			t.Fatal("leaf after internal node at equal depth")
		}
		prevDepth, prevLeaf = d, tree.IsLeaf(u)
		seen[u] = true
	}
	// Children must appear before parents.
	for _, u := range order {
		if p := tree.Nodes[u].Parent; p != NoNode && seen[p] {
			// parent also in order; verify position: rebuild index
			break
		}
	}
	pos := make(map[int32]int)
	for i, u := range order {
		pos[u] = i
	}
	for _, u := range order {
		if p := tree.Nodes[u].Parent; p != NoNode {
			if pp, ok := pos[p]; ok && pp <= pos[u] {
				t.Fatalf("parent %d processed before child %d", p, u)
			}
		}
	}
	// minDepth filtering.
	deep := tree.NodesByDepthDesc(w + 5)
	for _, u := range deep {
		if int(tree.Nodes[u].Depth) < w+5 {
			t.Fatal("minDepth filter failed")
		}
	}
}

func TestIdenticalFragmentsShareLeaf(t *testing.T) {
	st := buildStore("ACGTACGTACGT", "ACGTACGTACGT")
	acc := storeAccess(st)
	w := 4
	tree := Build(acc, EnumerateSuffixes(acc, allSids(st), w), w)
	// The full-length suffixes (pos 0) of fragments 0 and 1 must share
	// a leaf of depth 12.
	found := false
	for i := range tree.Nodes {
		u := int32(i)
		if !tree.IsLeaf(u) {
			continue
		}
		has0, has1 := false, false
		for _, sf := range tree.LeafSuffixes(u) {
			if sf.Pos == 0 && sf.Sid == 0 {
				has0 = true
			}
			if sf.Pos == 0 && sf.Sid == 1 {
				has1 = true
			}
		}
		if has0 && has1 {
			found = true
			if tree.Nodes[u].Depth != 12 {
				t.Errorf("shared leaf depth = %d", tree.Nodes[u].Depth)
			}
		}
	}
	if !found {
		t.Error("identical suffixes not in one leaf")
	}
}

// referenceKeyed is Scan's independent reference: EnumerateSuffixes
// then BucketKey, one PackKmer per position.
func referenceKeyed(st *seq.Store, sidLo, sidHi, w, minLen int, keep func(seq.Kmer) bool) (ks []Keyed, chars int64) {
	acc := storeAccess(st)
	for sid := sidLo; sid < sidHi; sid++ {
		chars += int64(len(acc(int32(sid))))
		for _, sf := range EnumerateSuffixes(acc, []int32{int32(sid)}, minLen) {
			if key, ok := BucketKey(acc(sf.Sid), int(sf.Pos), w); ok && (keep == nil || keep(key)) {
				ks = append(ks, Keyed{key, sf})
			}
		}
	}
	return ks, chars
}

// TestScanMatchesReference: the rolling scan must yield exactly the
// reference enumeration — same suffixes, keys, prev classes, order and
// character count — over both orientations, sub-ranges and a key
// filter, on inputs that put masked runs at window edges and mix in
// reads shorter than w, shorter than minLen, and empty.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	odd := func(k seq.Kmer) bool { return k&1 == 1 }
	cases := []struct {
		name      string
		st        *seq.Store
		w, minLen int
	}{
		{"masked window edges", buildStore("NACGTN", "ACGNACG", "NNNN", "ACGTNACGT", "ACGTACGN", "NACGTACG"), 4, 4},
		{"short and empty reads", buildStore("", "A", "ACG", "ACGT", "ACGTA", "", "ACGTACGTAC"), 4, 6},
		{"minLen above w", randomStore(rng, 12, 1, 40, 0.05), 3, 9},
		{"minLen below w", randomStore(rng, 12, 1, 40, 0.05), 5, 2},
		{"dense masking", randomStore(rng, 20, 10, 60, 0.3), 4, 4},
		{"clean long reads", randomStore(rng, 8, 80, 120, 0), 8, 12},
		{"w beyond MaxK", randomStore(rng, 3, 40, 50, 0), seq.MaxK + 1, seq.MaxK + 1},
	}
	for _, tc := range cases {
		n := tc.st.NumSeqs()
		ranges := [][2]int{{0, n}, {0, n / 2}, {n / 2, n}, {n / 3, n/3 + 1}, {2, 2}}
		for _, r := range ranges {
			for _, keep := range []func(seq.Kmer) bool{nil, odd} {
				want, wantChars := referenceKeyed(tc.st, r[0], r[1], tc.w, tc.minLen, keep)
				var got []Keyed
				gotChars := Scan(tc.st, r[0], r[1], tc.w, tc.minLen, keep, func(k Keyed) { got = append(got, k) })
				if gotChars != wantChars {
					t.Errorf("%s %v: %d chars examined, want %d", tc.name, r, gotChars, wantChars)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v filter=%v: scan yields %d suffixes %v, want %d %v",
						tc.name, r, keep != nil, len(got), got, len(want), want)
				}
			}
		}
	}
}

// TestScanDoesNotAllocate: the scan retains nothing and rolls its keys,
// so a pass over an in-memory store allocates nothing.
func TestScanDoesNotAllocate(t *testing.T) {
	st := randomStore(rand.New(rand.NewSource(3)), 30, 50, 90, 0.02)
	var n int
	odd := func(k seq.Kmer) bool { return k&1 == 1 }
	allocs := testing.AllocsPerRun(10, func() {
		Scan(st, 0, st.NumSeqs(), 6, 9, odd, func(Keyed) { n++ })
	})
	if n == 0 {
		t.Fatal("scan yielded nothing; weak test")
	}
	if allocs != 0 {
		t.Fatalf("scan allocates %.0f objects per pass, want 0", allocs)
	}
}

// TestAddKeyedMatchesBuckets: one keyed sort plus one run split must
// give the tree of the reference keying loop node for node and the
// work of building bucket by bucket (one-bucket AddKeyed calls),
// whatever order the keyed suffixes arrive in and however the buckets
// are split across cores, and the same node multiset as adding
// pre-grouped buckets in arbitrary order.
func TestAddKeyedMatchesBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := randomStore(rng, 6, 30, 50, 0.03)
	w := 3
	acc := storeAccess(st)
	sufs := EnumerateSuffixes(acc, allSids(st), w)

	t1 := Build(acc, sufs, w)

	var ks []Keyed
	Scan(st, 0, st.NumSeqs(), w, w, nil, func(k Keyed) { ks = append(ks, k) })
	var nbuckets int
	for _, sp := range splits {
		in := slices.Clone(ks)
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		ib := NewIncrementalBuilder(w)
		sp.run(func() {
			SortKeyed(in)
			nbuckets = ib.AddKeyed(shared(acc), in)
		})
		if !reflect.DeepEqual(ib.Tree(), t1) {
			t.Fatalf("%v: AddKeyed over shuffled scan output differs from Build", sp)
		}
		ref := NewIncrementalBuilder(w)
		for _, b := range bucketsOf(st, w, w) {
			addBucket(ref, acc, b)
		}
		if ib.Work() != ref.Work() {
			t.Fatalf("%v: AddKeyed work %d, bucket by bucket %d", sp, ib.Work(), ref.Work())
		}
	}
	for i := 1; i < len(t1.Roots); i++ {
		a, b := t1.LeafSuffixes(firstLeaf(t1, t1.Roots[i-1]))[0], t1.LeafSuffixes(firstLeaf(t1, t1.Roots[i]))[0]
		ka, _ := BucketKey(acc(a.Sid), int(a.Pos), w)
		kb, _ := BucketKey(acc(b.Sid), int(b.Pos), w)
		if ka >= kb {
			t.Fatalf("bucket %d key %d not above bucket %d key %d", i, kb, i-1, ka)
		}
	}

	byKey := make(map[seq.Kmer][]Suffix)
	for _, k := range ks {
		byKey[k.Key] = append(byKey[k.Key], k.Suf)
	}
	if nbuckets != len(byKey) || len(t1.Roots) != len(byKey) {
		t.Fatalf("%d buckets reported, %d roots, want %d", nbuckets, len(t1.Roots), len(byKey))
	}
	ib := NewIncrementalBuilder(w)
	for _, b := range byKey {
		addBucket(ib, acc, b)
	}
	t2 := ib.Tree()

	if t1.NumNodes() != t2.NumNodes() || len(t1.Roots) != len(t2.Roots) {
		t.Fatalf("shape mismatch: %d/%d nodes, %d/%d roots",
			t1.NumNodes(), t2.NumNodes(), len(t1.Roots), len(t2.Roots))
	}
	// Node multiset by (depth, leafness, #sufs) must match.
	sig := func(tr *Tree) map[string]int {
		m := make(map[string]int)
		for i := range tr.Nodes {
			u := int32(i)
			k := fmt.Sprintf("%d/%v/%d", tr.Nodes[u].Depth, tr.IsLeaf(u),
				tr.Nodes[u].SufEnd-tr.Nodes[u].SufStart)
			m[k]++
		}
		return m
	}
	s1, s2 := sig(t1), sig(t2)
	for k, v := range s1 {
		if s2[k] != v {
			t.Fatalf("node signature %q: %d != %d", k, v, s2[k])
		}
	}
}

// addBucket adds bucket b, suffixes sharing their w-prefix, to ib as a
// one-bucket AddKeyed call.
func addBucket(ib *IncrementalBuilder, acc Access, b []Suffix) {
	key, _ := BucketKey(acc(b[0].Sid), int(b[0].Pos), ib.Tree().W)
	ks := make([]Keyed, len(b))
	for i, sf := range b {
		ks[i] = Keyed{key, sf}
	}
	SortKeyed(ks)
	ib.AddKeyed(shared(acc), ks)
}

// firstLeaf descends first children from u to a leaf.
func firstLeaf(t *Tree, u int32) int32 {
	for !t.IsLeaf(u) {
		u = t.Nodes[u].FirstChild
	}
	return u
}

func TestDeepRepeatDoesNotExplode(t *testing.T) {
	// A long homopolymer run exercises the worst-case deep paths.
	long := make([]byte, 500)
	for i := range long {
		long[i] = 'A'
	}
	st := buildStore(string(long), string(long[:400]))
	acc := storeAccess(st)
	w := 5
	tree := Build(acc, EnumerateSuffixes(acc, allSids(st), w), w)
	checkStructure(t, tree, acc)
}

// refBuilder is the builder this package had before the in-place one,
// kept verbatim as the oracle: one charAt per character of every edge,
// six append-grown groups per level, leaves appended to Sufs.
type refBuilder struct {
	access Access
	tree   *Tree
	work   int64
}

func (b *refBuilder) newNode(parent, depth int32) int32 {
	id := int32(len(b.tree.Nodes))
	b.tree.Nodes = append(b.tree.Nodes, Node{
		Parent:     parent,
		Depth:      depth,
		FirstChild: NoNode,
		NextSib:    NoNode,
		SufStart:   -1,
		SufEnd:     -1,
	})
	return id
}

func (b *refBuilder) newLeaf(parent, depth int32, sufs []Suffix) int32 {
	id := b.newNode(parent, depth)
	n := &b.tree.Nodes[id]
	n.SufStart = int32(len(b.tree.Sufs))
	b.tree.Sufs = append(b.tree.Sufs, sufs...)
	n.SufEnd = int32(len(b.tree.Sufs))
	return id
}

func (b *refBuilder) attach(parent, child int32) {
	c := &b.tree.Nodes[child]
	c.Parent = parent
	c.NextSib = b.tree.Nodes[parent].FirstChild
	b.tree.Nodes[parent].FirstChild = child
}

// charAt classifies the character of suffix sf at string-depth depth:
// 0..3 base code, -1 masked, -2 end of string.
func (b *refBuilder) charAt(sf Suffix, depth int32) int {
	b.work++
	s := b.access(sf.Sid)
	i := int(sf.Pos) + int(depth)
	if i >= len(s) {
		return -2
	}
	return seq.Code(s[i])
}

func (b *refBuilder) build(sufs []Suffix, depth int32, parent int32) int32 {
	if len(sufs) == 1 {
		sf := sufs[0]
		s := b.access(sf.Sid)
		end := int(sf.Pos) + int(depth)
		for end < len(s) && seq.IsBase(s[end]) {
			end++
			b.work++
		}
		return b.newLeaf(parent, int32(end-int(sf.Pos)), sufs)
	}

	var groups [4][]Suffix
	var ended []Suffix
	var masked []Suffix
	for {
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		ended, masked = ended[:0], masked[:0]
		for _, sf := range sufs {
			switch c := b.charAt(sf, depth); c {
			case -2:
				ended = append(ended, sf)
			case -1:
				masked = append(masked, sf)
			default:
				groups[c] = append(groups[c], sf)
			}
		}
		total := 0
		for c := range groups {
			if len(groups[c]) > 0 {
				total++
			}
		}
		if total == 1 && len(ended) == 0 && len(masked) == 0 {
			depth++
			continue
		}
		if total == 0 && len(masked) == 0 {
			return b.newLeaf(parent, depth, ended)
		}

		u := b.newNode(parent, depth)
		if len(ended) > 0 {
			leaf := b.newLeaf(u, depth, ended)
			b.attach(u, leaf)
		}
		for _, sf := range masked {
			leaf := b.newLeaf(u, depth, []Suffix{sf})
			b.attach(u, leaf)
		}
		for c := 3; c >= 0; c-- {
			if len(groups[c]) == 0 {
				continue
			}
			child := b.build(groups[c], depth+1, u)
			b.attach(u, child)
		}
		return u
	}
}

// referenceBuild is the old bucket-by-bucket loop: each bucket sorted
// by (sid, pos) with sort.Slice, then built by refBuilder.
func referenceBuild(access Access, buckets [][]Suffix, w int) (*Tree, int64) {
	b := &refBuilder{access: access, tree: &Tree{W: w}}
	for _, bucket := range buckets {
		bucket = slices.Clone(bucket)
		sort.Slice(bucket, func(i, j int) bool {
			if bucket[i].Sid != bucket[j].Sid {
				return bucket[i].Sid < bucket[j].Sid
			}
			return bucket[i].Pos < bucket[j].Pos
		})
		root := b.build(bucket, int32(w), NoNode)
		b.tree.Roots = append(b.tree.Roots, root)
	}
	return b.tree, b.work
}

// bucketsOf groups the scan of st by key, in ascending key order.
func bucketsOf(st *seq.Store, w, minLen int) [][]Suffix {
	var ks []Keyed
	Scan(st, 0, st.NumSeqs(), w, minLen, nil, func(k Keyed) { ks = append(ks, k) })
	slices.SortStableFunc(ks, func(a, b Keyed) int { return cmp.Compare(a.Key, b.Key) })
	var buckets [][]Suffix
	EachRun(ks, func(lo, hi int) {
		var b []Suffix
		for _, k := range ks[lo:hi] {
			b = append(b, k.Suf)
		}
		buckets = append(buckets, b)
	})
	return buckets
}

// checkMatchesReference builds st's buckets with the product builder —
// through SortKeyed and AddKeyed over shuffled keyed suffixes in every
// one of splits, and bucket by bucket, one sorted AddKeyed call each,
// with the buckets and each bucket's suffixes in shuffled order — and
// requires the reference's forest over the same bucket order node for
// node and its work count term for term.
func checkMatchesReference(t testing.TB, rng *rand.Rand, st *seq.Store, w, minLen int) (nsuf int) {
	t.Helper()
	acc := storeAccess(st)
	buckets := bucketsOf(st, w, minLen)
	check := func(name string, got *IncrementalBuilder, buckets [][]Suffix) {
		t.Helper()
		want, wantWork := referenceBuild(acc, buckets, w)
		gt := got.Tree()
		if !reflect.DeepEqual(gt.Nodes, want.Nodes) || !reflect.DeepEqual(gt.Sufs, want.Sufs) || !reflect.DeepEqual(gt.Roots, want.Roots) {
			t.Fatalf("%s: forest differs from the reference (%d/%d nodes, %d/%d sufs, %d/%d roots)", name,
				len(gt.Nodes), len(want.Nodes), len(gt.Sufs), len(want.Sufs), len(gt.Roots), len(want.Roots))
		}
		if got.Work() != wantWork {
			t.Fatalf("%s: work %d, reference %d", name, got.Work(), wantWork)
		}
	}

	var ks []Keyed
	for _, b := range buckets {
		key, _ := BucketKey(acc(b[0].Sid), int(b[0].Pos), w)
		for _, sf := range b {
			ks = append(ks, Keyed{key, sf})
		}
	}
	for _, sp := range splits {
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		ib := NewIncrementalBuilder(w)
		var n int
		sp.run(func() {
			in := slices.Clone(ks)
			SortKeyed(in)
			n = ib.AddKeyed(shared(acc), in)
		})
		if n != len(buckets) {
			t.Fatalf("%v: AddKeyed reports %d buckets, want %d", sp, n, len(buckets))
		}
		check(fmt.Sprintf("AddKeyed (%v)", sp), ib, buckets)
	}
	rng.Shuffle(len(buckets), func(i, j int) { buckets[i], buckets[j] = buckets[j], buckets[i] })
	ib := NewIncrementalBuilder(w)
	for _, b := range buckets {
		b = slices.Clone(b)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		addBucket(ib, acc, b)
	}
	check("one-bucket AddKeyed", ib, buckets)
	return len(ks)
}

// TestBuildMatchesReference: the in-place builder against the old
// append-based one over seeded random stores and the shapes that
// exercise each arm: masked runs at window edges, identical reads (all
// suffixes end together), reads shorter than w, reverse-complement
// sids (every store carries them), a 500-base homopolymer, and a store
// that AddKeyed splits across cores at its own chunk minimum.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	homopolymer := strings.Repeat("A", 500)
	cases := []struct {
		name      string
		st        *seq.Store
		w, minLen int
	}{
		{"masked window edges", buildStore("NACGTN", "ACGNACG", "NNNN", "ACGTNACGT", "ACGTACGN", "NACGTACG", "ACGTNACGA", "ACGTN", "ACGTNN"), 4, 4},
		{"identical reads", buildStore("ACGTACGTACGTTTGA", "ACGTACGTACGTTTGA", "ACGTACGTACGTTTGA", "ACGTACGTACGNTTGA"), 4, 4},
		{"shorter than w", buildStore("", "A", "ACG", "ACGT", "ACGTA", "ACGTACGTAC"), 4, 4},
		{"homopolymer", buildStore(homopolymer, homopolymer[:400], "AAAAANAAAAAA"), 5, 5},
		{"all masked after w", buildStore("ACGTN", "ACGTN", "ACGTNA"), 4, 4},
		// Large enough for AddKeyed to split at the product's chunk
		// minimum on four cores.
		{"split shotgun", randomStore(rng, 60, 150, 250, 0.02), 6, 8},
	}
	for i := 0; i < 40; i++ {
		mask := []float64{0, 0.02, 0.1, 0.3}[i%4]
		w := 2 + rng.Intn(5)
		cases = append(cases, struct {
			name      string
			st        *seq.Store
			w, minLen int
		}{fmt.Sprintf("random %d", i), randomStore(rng, 2+rng.Intn(12), 1, 90, mask), w, w + rng.Intn(3)*rng.Intn(4)})
	}
	// A low-complexity alphabet makes deep shared edges and wide leaves.
	for i := 0; i < 10; i++ {
		frags := make([]*seq.Fragment, 6)
		for j := range frags {
			b := make([]byte, 20+rng.Intn(60))
			for k := range b {
				b[k] = "AAAT"[rng.Intn(4)]
			}
			frags[j] = &seq.Fragment{Name: fmt.Sprint(j), Bases: b}
		}
		cases = append(cases, struct {
			name      string
			st        *seq.Store
			w, minLen int
		}{fmt.Sprintf("low complexity %d", i), seq.NewStore(frags), 3, 3})
	}
	total := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total += checkMatchesReference(t, rng, tc.st, tc.w, tc.minLen)
		})
	}
	if total < 20000 {
		t.Fatalf("only %d suffixes compared; weak test", total)
	}
}

// TestBuildAllocsPerSuffix: a build allocates its keyed records, the
// forest's three slices and the partition scratch — nothing per node.
func TestBuildAllocsPerSuffix(t *testing.T) {
	st := randomStore(rand.New(rand.NewSource(8)), 40, 60, 120, 0.02)
	acc := storeAccess(st)
	w := 4
	sufs := EnumerateSuffixes(acc, allSids(st), w)
	allocs := testing.AllocsPerRun(5, func() { Build(acc, sufs, w) })
	if per := allocs / float64(len(sufs)); per >= 0.5 {
		t.Fatalf("%.0f allocations for %d suffixes = %.2f per suffix, want < 0.5", allocs, len(sufs), per)
	}
}

// FuzzBuildMatchesReference turns bytes into reads — two bits a base,
// some bytes a mask or a read break — and compares the product builder
// with the reference, tree and work. w runs to 16, so the keys have up
// to four bytes to sort on.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x00\x01\x02\x03\xff\x00\x01\x02\x03\x00\x01"), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, wb uint8) {
		if len(data) > 600 {
			return
		}
		w := 1 + int(wb%16)
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
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkMatchesReference(t, rng, buildStore(reads...), w, w+int(wb>>6))
	})
}

// comparisonSortKeyed is the sort SortKeyed replaced, kept as its
// oracle: one comparison sort by (key, sid, pos).
func comparisonSortKeyed(ks []Keyed) {
	slices.SortFunc(ks, func(x, y Keyed) int {
		if x.Key != y.Key {
			return cmp.Compare(x.Key, y.Key)
		}
		return cmpSuffix(x.Suf, y.Suf)
	})
}

// FuzzSortKeyed holds the radix sort to the comparison sort. The data
// are keys of 1 + bits%62 bits, big-endian in as few bytes as hold them
// (few bits: many duplicate keys; up to 2·seq.MaxK bits: every byte a
// pass). Record i is suffix (i mod nsid, i), so no two records tie on
// (key, sid, pos) and the order is unique; layout picks nsid and the
// input order — as decoded, (sid, pos) order as Scan yields it,
// reversed, or shuffled.
func FuzzSortKeyed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, bits, layout uint8) {
		nb := 1 + int(bits)%(2*seq.MaxK)
		width := (nb + 7) / 8
		nsid := 1 + int(layout>>2)
		var ks []Keyed
		for i := 0; i+width <= len(data); i += width {
			var key seq.Kmer
			for _, c := range data[i : i+width] {
				key = key<<8 | seq.Kmer(c)
			}
			n := len(ks)
			ks = append(ks, Keyed{key & (1<<nb - 1), Suffix{Sid: int32(n % nsid), Pos: int32(n), Prev: int8(n % NumPrevClasses)}})
		}
		switch layout % 4 {
		case 1:
			slices.SortFunc(ks, cmpKeyedSuffix)
		case 2:
			slices.Reverse(ks)
		case 3:
			rng := rand.New(rand.NewSource(int64(len(data))))
			rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		}
		want := slices.Clone(ks)
		comparisonSortKeyed(want)
		SortKeyed(ks)
		if !slices.Equal(ks, want) {
			t.Fatalf("%d keys of %d bits, layout %d: radix order\n%v\nwant\n%v", len(ks), nb, layout, ks, want)
		}
	})
}

var benchTree *Tree

// benchShapes are BenchmarkBuild's stores: a shotgun-like one, and one
// shaped like a job of the service benchmark (60 reads of about 700 bp,
// ψ = 20, w = 10).
var benchShapes = []struct {
	name                  string
	genome, reads, length int
	w, minLen             int
}{
	{"shotgun", 20000, 400, 400, 8, 16},
	{"job", 30000, 60, 650, 10, 20},
}

// benchStore samples a shape's reads from a random genome.
func benchStore(genomeLen, nreads, length int) *seq.Store {
	rng := rand.New(rand.NewSource(31))
	genome := make([]byte, genomeLen)
	for i := range genome {
		genome[i] = seq.Base(rng.Intn(4))
	}
	var reads []string
	for i := 0; i < nreads; i++ {
		at := rng.Intn(len(genome) - length - 100)
		reads = append(reads, string(genome[at:at+length+rng.Intn(100)]))
	}
	return buildStore(reads...)
}

// BenchmarkBuild measures the builder layer alone: key, sort and build
// the suffixes of each of benchShapes.
func BenchmarkBuild(b *testing.B) {
	for _, c := range benchShapes {
		b.Run(c.name, func(b *testing.B) {
			st := benchStore(c.genome, c.reads, c.length)
			acc := storeAccess(st)
			sufs := EnumerateSuffixes(acc, allSids(st), c.minLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTree = Build(acc, sufs, c.w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sufs)), "ns/suffix")
		})
	}
}

// BenchmarkBuildStages times the stages of a one-segment sweep's build
// apart on each of benchShapes: scan-ms is Scan into keyed records,
// sort-ms SortKeyed, build-ms AddKeyed over the sorted records (the
// tries, split across cores).
func BenchmarkBuildStages(b *testing.B) {
	for _, c := range benchShapes {
		b.Run(c.name, func(b *testing.B) {
			st := benchStore(c.genome, c.reads, c.length)
			acc := shared(storeAccess(st))
			n := 0
			for sid := range st.NumSeqs() {
				n += max(st.SeqLen(sid)-c.minLen+1, 0)
			}
			var scanT, sortT, buildT time.Duration
			for i := 0; i < b.N; i++ {
				ks := make([]Keyed, 0, n) // as the sweep sizes them
				t0 := time.Now()
				Scan(st, 0, st.NumSeqs(), c.w, c.minLen, nil, func(k Keyed) { ks = append(ks, k) })
				t1 := time.Now()
				SortKeyed(ks)
				t2 := time.Now()
				ib := NewIncrementalBuilder(c.w)
				ib.AddKeyed(acc, ks)
				benchTree = ib.Tree()
				scanT, sortT, buildT = scanT+t1.Sub(t0), sortT+t2.Sub(t1), buildT+time.Since(t2)
			}
			for _, m := range []struct {
				d    time.Duration
				unit string
			}{{scanT, "scan-ms"}, {sortT, "sort-ms"}, {buildT, "build-ms"}} {
				b.ReportMetric(float64(m.d.Microseconds())/1e3/float64(b.N), m.unit)
			}
		})
	}
}
