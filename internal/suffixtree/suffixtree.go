// Package suffixtree implements the generalized suffix tree (GST) the
// paper's pair-generation algorithm runs on (Sections 5–6): a
// compacted trie of all suffixes of all input fragments and their
// reverse complements, built bucket-by-bucket. Suffixes are first
// partitioned into buckets by their w-length prefixes; each bucket's
// subtree is then built depth-first by recursive character
// partitioning. The portion of the tree above depth w is never needed
// (pair generation only visits nodes of string-depth ≥ ψ ≥ w), so the
// tree is represented as a forest of bucket subtrees.
//
// Masking semantics: a masked position matches nothing, including
// another masked position. During partitioning a suffix that reaches a
// masked byte detaches as a singleton leaf, so no exact match ever
// crosses a masked base. The shared end-of-string terminator groups
// identical full suffixes into one leaf, as in the paper.
package suffixtree

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/pool"
	"repro/internal/seq"
)

// PrevNone marks a suffix with no usable preceding character: either
// the suffix starts the string (the paper's λ class) or the preceding
// byte is masked, which can never extend a match leftwards and is
// therefore equivalent for left-maximality.
const PrevNone int8 = 4

// NumPrevClasses is the number of lset classes: A, C, G, T and λ.
const NumPrevClasses = 5

// Suffix identifies suffix Pos of sequence Sid together with the class
// of its preceding character, which is all the lset machinery needs.
type Suffix struct {
	Sid  int32
	Pos  int32
	Prev int8 // 0..3 base code, or PrevNone
}

// Access returns the bases of a sequence ID; the tree builder uses it
// instead of a concrete store so the parallel construction can
// substitute locally fetched fragments. The builder is done with a
// returned slice by the time it makes the call after next, so an Access
// may reuse the memory of the slice it returned two calls earlier (a
// disk store's bounded access table does).
type Access func(sid int32) []byte

// NoNode marks an absent node reference.
const NoNode int32 = -1

// Node is one compacted-trie node. Children form a singly linked list
// (FirstChild / NextSib). A leaf (no children) owns the suffixes
// Sufs[SufStart:SufEnd] of the Tree; internal nodes own none.
type Node struct {
	Parent     int32
	Depth      int32 // string-depth: length of the root-to-node path label
	FirstChild int32
	NextSib    int32
	SufStart   int32
	SufEnd     int32
}

// Tree is a bucket forest: the part of the generalized suffix tree at
// string-depth ≥ w.
type Tree struct {
	Nodes []Node
	Sufs  []Suffix
	Roots []int32
	W     int
}

// IsLeaf reports whether node u has no children.
func (t *Tree) IsLeaf(u int32) bool { return t.Nodes[u].FirstChild == NoNode }

// LeafSuffixes returns the suffixes attached to leaf u.
func (t *Tree) LeafSuffixes(u int32) []Suffix {
	n := &t.Nodes[u]
	return t.Sufs[n.SufStart:n.SufEnd]
}

// NumNodes returns the number of nodes in the forest.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// Children calls fn for each child of u.
func (t *Tree) Children(u int32, fn func(v int32)) {
	for v := t.Nodes[u].FirstChild; v != NoNode; v = t.Nodes[v].NextSib {
		fn(v)
	}
}

// NodesByDepthDesc returns all nodes with Depth ≥ minDepth in
// decreasing string-depth order, the processing order of the pair
// generation algorithm (step S2). Ties are broken leaves-first so that
// a terminal leaf whose depth equals its parent's is processed before
// the parent. Counting sort on depth keeps this O(nodes + maxDepth).
func (t *Tree) NodesByDepthDesc(minDepth int) []int32 {
	maxDepth := 0
	for i := range t.Nodes {
		if d := int(t.Nodes[i].Depth); d > maxDepth {
			maxDepth = d
		}
	}
	// Two passes per depth: leaves first, then internal nodes.
	counts := make([]int, 2*(maxDepth+1))
	slot := func(i int) int {
		d := int(t.Nodes[i].Depth)
		s := 2 * (maxDepth - d)
		if !t.IsLeaf(int32(i)) {
			s++
		}
		return s
	}
	n := 0
	for i := range t.Nodes {
		if int(t.Nodes[i].Depth) >= minDepth {
			counts[slot(i)]++
			n++
		}
	}
	offsets := make([]int, len(counts))
	sum := 0
	for i, c := range counts {
		offsets[i] = sum
		sum += c
	}
	out := make([]int32, n)
	for i := range t.Nodes {
		if int(t.Nodes[i].Depth) >= minDepth {
			s := slot(i)
			out[offsets[s]] = int32(i)
			offsets[s]++
		}
	}
	return out
}

// Keyed is a suffix with its bucket key, the packed w-prefix.
type Keyed struct {
	Key seq.Kmer
	Suf Suffix
}

// Scan is the one pass GST construction makes over reads: it calls fn
// for every suffix of sequences [sidLo, sidHi) that is at least minLen
// long, has an unmasked w-window and whose key passes keep (nil: all),
// in (sid, pos) order, rolling the key in O(1) per position and
// retaining nothing. Returns the characters examined.
func Scan(st seq.Seqs, sidLo, sidHi, w, minLen int, keep func(seq.Kmer) bool, fn func(Keyed)) (chars int64) {
	for sid := sidLo; sid < sidHi; sid++ {
		s := st.Seq(sid)
		chars += int64(len(s))
		// A suffix shorter than minLen starts in the last minLen-1
		// positions; trimming the tail keeps their windows out.
		windows := s
		if minLen > w {
			windows = s[:max(len(s)-(minLen-w), 0)]
		}
		seq.EachKmer(windows, w, func(pos int, key seq.Kmer) {
			if keep == nil || keep(key) {
				fn(Keyed{key, Suffix{Sid: int32(sid), Pos: int32(pos), Prev: prevClass(s, pos)}})
			}
		})
	}
	return chars
}

// EnumerateSuffixes lists every suffix of the given sequence IDs with
// its preceding-character class. Suffixes shorter than minLen are
// skipped (they cannot carry a maximal match of length ≥ minLen).
// Together with BucketKey it is the independent reference Scan is
// tested against; construction itself goes through Scan.
func EnumerateSuffixes(access Access, sids []int32, minLen int) []Suffix {
	var out []Suffix
	for _, sid := range sids {
		s := access(sid)
		for pos := 0; pos+minLen <= len(s); pos++ {
			out = append(out, Suffix{Sid: sid, Pos: int32(pos), Prev: prevClass(s, pos)})
		}
	}
	return out
}

func prevClass(s []byte, pos int) int8 {
	if pos == 0 {
		return PrevNone
	}
	c := seq.Code(s[pos-1])
	if c < 0 {
		return PrevNone
	}
	return int8(c)
}

// BucketKey packs the w-prefix of suffix (sid,pos); ok is false when
// the window is short or contains a masked base, in which case the
// suffix joins no bucket (it cannot begin a maximal match ≥ w).
func BucketKey(s []byte, pos, w int) (seq.Kmer, bool) {
	return seq.PackKmer(s, pos, w)
}

// Build constructs the bucket forest for the given suffixes with
// prefix length w. Suffixes whose w-window is invalid are dropped. The
// buckets are built on every core, so access must be safe for
// concurrent use.
func Build(access Access, sufs []Suffix, w int) *Tree {
	ks := make([]Keyed, 0, len(sufs))
	for _, sf := range sufs {
		if key, ok := BucketKey(access(sf.Sid), int(sf.Pos), w); ok {
			ks = append(ks, Keyed{key, sf})
		}
	}
	SortKeyed(ks)
	ib := NewIncrementalBuilder(w)
	ib.AddKeyed(func(int) Access { return access }, ks)
	return ib.Tree()
}

// EachRun calls fn with every maximal equal-key run ks[lo:hi] of the
// key-sorted ks, in ascending key order: one run is one bucket.
func EachRun(ks []Keyed, fn func(lo, hi int)) {
	for lo := 0; lo < len(ks); {
		hi := lo + 1
		for hi < len(ks) && ks[hi].Key == ks[lo].Key {
			hi++
		}
		fn(lo, hi)
		lo = hi
	}
}

// IncrementalBuilder accumulates bucket subtrees into one forest. The
// parallel construction builds batches of buckets whose fragments are
// fetched together, so the access function may differ per AddKeyed
// call (sequence bytes are needed only during that call — the finished
// tree stores no labels); all of them must serve the same bytes for a
// sid, since the builder remembers where each sequence's masks end.
//
// A bucket is copied to the tail of Tree.Sufs once, in canonical (sid,
// pos) order, and turned into its trie in place: a branch stably
// partitions its range of Sufs by next character, in the order its
// children are created, so every leaf's suffixes already lie where the
// leaf points and nothing is appended.
//
// Buckets are independent, so AddKeyed builds contiguous chunks of them
// on every core, each on its own worker (see worker), and the forest is
// the same node for node as one goroutine builds.
type IncrementalBuilder struct {
	tree *Tree
	// workers[k] builds chunk k of an AddKeyed call; workers[0] builds
	// a call that is not split.
	workers []*worker
	ends    []int32 // where each bucket of an AddKeyed call ends in Sufs
	cuts    []int   // chunk k of an AddKeyed call is buckets ends[cuts[k]:cuts[k+1]]
}

// worker builds buckets into a window of the forest's node array: node
// ID base+i is nodes[i]. It has its own partition scratch, table of
// last masked bytes, work count and Access, so workers share only the
// Sufs and Nodes arrays, each writing its own disjoint ranges of them.
type worker struct {
	sufs   []Suffix // the forest's Sufs
	nodes  []Node
	base   int32
	roots  []int32
	w      int32
	access Access // of the buckets being built
	work   int64  // characters examined; exact construction work measure
	// Partition scratch, as long as the largest bucket so far.
	class []uint8  // child class of each suffix of the branching range
	tmp   []Suffix // the range's stable partition, copied back
	// basesFrom[sid]-1 is the index just past sequence sid's last masked
	// byte, 0 while not yet looked up: from there on the sequence is all
	// bases, so an edge that starts there runs to its end.
	basesFrom []int32
}

// minChunkSuffixes is the fewest suffixes AddKeyed hands one worker:
// below twice as many it builds on the calling goroutine alone. A
// variable only so tests can split small forests.
var minChunkSuffixes = 4096

// NewIncrementalBuilder returns a builder for bucket prefix length w.
func NewIncrementalBuilder(w int) *IncrementalBuilder {
	return &IncrementalBuilder{tree: &Tree{W: w}}
}

// Tree returns the accumulated forest.
func (b *IncrementalBuilder) Tree() *Tree { return b.tree }

// TakeTree returns the accumulated forest and starts an empty one. The
// builder keeps its work count, scratch and per-sequence tables, so the
// segments of one sweep look each sequence's last masked byte up once
// per worker.
func (b *IncrementalBuilder) TakeTree() *Tree {
	t := b.tree
	b.tree = &Tree{W: t.W}
	return t
}

// Reuse hands back the storage of t, a forest TakeTree returned whose
// consumer is done with it, to the empty forest being built, which
// overwrites t. A sweep reuses one segment's forest for the next, so
// its segments allocate no tree memory after the largest one.
func (b *IncrementalBuilder) Reuse(t *Tree) {
	b.tree.Nodes, b.tree.Sufs, b.tree.Roots = t.Nodes[:0], t.Sufs[:0], t.Roots[:0]
}

// Clone returns a copy of t that shares no storage with it: how a
// consumer keeps a forest whose storage a sweep reuses.
func (t *Tree) Clone() *Tree {
	return &Tree{Nodes: slices.Clone(t.Nodes), Sufs: slices.Clone(t.Sufs), Roots: slices.Clone(t.Roots), W: t.W}
}

// Work returns the number of characters the builder has examined, an
// exact measure of construction work for modeled-time accounting: the
// sum of its workers' counts, whatever the split.
func (b *IncrementalBuilder) Work() int64 {
	var n int64
	for _, wk := range b.workers {
		n += wk.work
	}
	return n
}

// worker returns workers[k], made on first use.
func (b *IncrementalBuilder) worker(k int) *worker {
	for len(b.workers) <= k {
		b.workers = append(b.workers, &worker{w: int32(b.tree.W)})
	}
	return b.workers[k]
}

// cmpSuffix orders by (sid, pos), packed: neither is negative.
func cmpSuffix(x, y Suffix) int {
	return cmp.Compare(uint64(x.Sid)<<32|uint64(x.Pos), uint64(y.Sid)<<32|uint64(y.Pos))
}

// cmpKeyedSuffix orders the records of one equal-key run.
func cmpKeyedSuffix(x, y Keyed) int { return cmpSuffix(x.Suf, y.Suf) }

// SortKeyed is the one sort of a build: by key, so every bucket is an
// equal-key run, then by (sid, pos), the canonical order in a bucket.
//
// Keys are integers, so the first order is a stable LSD radix sort, a
// byte per pass, that skips every byte on which all keys agree (a
// w-prefix key has 2w bits; a key-range segment fixes its top ones).
// Being stable, it leaves each run in input order, which is already
// canonical for anything Scan yields; only runs that are not — the
// concatenation of other ranks' scans that redistribution delivers —
// are sorted by (sid, pos). Scratch is one copy of ks, unless ks is
// already in key order.
func SortKeyed(ks []Keyed) {
	if len(ks) < 2 {
		return
	}
	var differ seq.Kmer
	sorted := true
	for i, k := range ks {
		differ |= k.Key ^ ks[0].Key
		sorted = sorted && (i == 0 || ks[i-1].Key <= k.Key)
	}
	if !sorted {
		src, dst := ks, make([]Keyed, len(ks))
		for s := uint(0); s < 64; s += 8 {
			if byte(differ>>s) == 0 {
				continue
			}
			var next [256]int
			for _, k := range src {
				next[byte(k.Key>>s)]++
			}
			sum := 0
			for d, c := range next {
				next[d], sum = sum, sum+c
			}
			for _, k := range src {
				d := byte(k.Key >> s)
				dst[next[d]] = k
				next[d]++
			}
			src, dst = dst, src
		}
		if &src[0] != &ks[0] {
			copy(ks, src)
		}
	}
	EachRun(ks, func(lo, hi int) {
		if run := ks[lo:hi]; !slices.IsSortedFunc(run, cmpKeyedSuffix) {
			slices.SortFunc(run, cmpKeyedSuffix)
		}
	})
}

// AddKeyed builds every equal-key run of ks as one bucket, in
// ascending key order; it returns the number of buckets. ks must be in
// the order SortKeyed puts it — what a sweep's runs and the
// redistribution's merge deliver — and AddKeyed checks only that the
// keys do not descend: a caller holding records in any other order
// sorts them first. The suffixes are copied to Tree.Sufs, in one walk
// that also finds the runs, before the nodes are reserved and any trie
// is built, so a ks the caller does not hold is garbage while they are.
//
// The buckets are split into contiguous chunks of about equal suffix
// count, one per core (pool.Chunks), and worker k builds chunk k. It
// reads sequences through access(k) alone, called on the calling
// goroutine before any worker starts, so an Access that is not safe for
// concurrent use serves one worker; every Access must serve every
// sequence ks references. Worker k writes its nodes into its own
// window of the 2n-node reservation, and a pass in chunk order moves
// each window down behind the one before and shifts its links, so the
// forest is the one a single goroutine builds.
func (b *IncrementalBuilder) AddKeyed(access func(worker int) Access, ks []Keyed) (nbuckets int) {
	lo, n := len(b.tree.Sufs), len(ks)
	b.ends = b.ends[:0]
	b.tree.Sufs = slices.Grow(b.tree.Sufs, n)
	for i, k := range ks {
		if i > 0 && k.Key != ks[i-1].Key {
			if k.Key < ks[i-1].Key {
				panic("suffixtree: AddKeyed over records not in key order")
			}
			b.ends = append(b.ends, int32(lo+i))
		}
		b.tree.Sufs = append(b.tree.Sufs, k.Suf)
	}
	if n > 0 {
		b.ends = append(b.ends, int32(lo+n))
	}
	// Room for the fewer than 2n nodes the tries can have (every leaf
	// holds a suffix, every internal node has two children).
	b.tree.Nodes = slices.Grow(b.tree.Nodes, 2*n)

	// Cut after the first bucket that reaches each chunk's share.
	chunks := pool.Chunks(n, minChunkSuffixes)
	b.cuts = append(b.cuts[:0], 0)
	for i, e := range b.ends {
		if len(b.cuts) < chunks && int(e)-lo >= len(b.cuts)*n/chunks {
			b.cuts = append(b.cuts, i+1)
		}
	}
	b.cuts = append(b.cuts, len(b.ends))
	sufLo := func(c int) int {
		if c == 0 {
			return lo
		}
		return int(b.ends[c-1])
	}
	nodesLo := len(b.tree.Nodes)
	nodes := b.tree.Nodes[:nodesLo+2*n]
	for k := range len(b.cuts) - 1 {
		wk := b.worker(k)
		from, to := sufLo(b.cuts[k]), sufLo(b.cuts[k+1])
		at := nodesLo + 2*(from-lo)
		wk.sufs, wk.nodes, wk.base = b.tree.Sufs, nodes[at:at:at+2*(to-from)], int32(at)
		wk.roots, wk.access = wk.roots[:0], access(k)
	}
	pool.For(len(b.cuts)-1, 2, nil, func(k int) {
		b.workers[k].buildRuns(sufLo(b.cuts[k]), b.ends[b.cuts[k]:b.cuts[k+1]])
	})

	// Compact: window k moves down to where window k-1 ended.
	at := int32(nodesLo)
	shift := func(id, by int32) int32 {
		if id == NoNode {
			return NoNode
		}
		return id - by
	}
	for k := range len(b.cuts) - 1 {
		wk := b.workers[k]
		if by := wk.base - at; by != 0 {
			for i, nd := range wk.nodes {
				nd.Parent, nd.FirstChild, nd.NextSib = shift(nd.Parent, by), shift(nd.FirstChild, by), shift(nd.NextSib, by)
				nodes[at+int32(i)] = nd
			}
			for i := range wk.roots {
				wk.roots[i] -= by
			}
		}
		b.tree.Roots = append(b.tree.Roots, wk.roots...)
		at += int32(len(wk.nodes))
		wk.sufs, wk.nodes, wk.access = nil, nil, nil
	}
	b.tree.Nodes = nodes[:at]
	return len(b.ends)
}

// buildRuns builds the canonically ordered buckets Sufs[lo:ends[0]],
// Sufs[ends[0]:ends[1]], ... as roots.
func (wk *worker) buildRuns(lo int, ends []int32) {
	for _, hi := range ends {
		if n := int(hi) - lo; n > len(wk.tmp) {
			wk.class = slices.Grow(wk.class[:0], n)[:n]
			wk.tmp = slices.Grow(wk.tmp[:0], n)[:n]
		}
		wk.roots = append(wk.roots, wk.build(int32(lo), hi, wk.w, NoNode))
		lo = int(hi)
	}
}

// newNode appends a node, a leaf if it owns Sufs[sufStart:sufEnd], and
// links it in front of its parent's children.
func (wk *worker) newNode(parent, depth, sufStart, sufEnd int32) int32 {
	id := wk.base + int32(len(wk.nodes))
	wk.nodes = append(wk.nodes, Node{parent, depth, NoNode, NoNode, sufStart, sufEnd})
	if parent != NoNode {
		p := &wk.nodes[parent-wk.base]
		wk.nodes[id-wk.base].NextSib, p.FirstChild = p.FirstChild, id
	}
	return id
}

// tail returns what follows the first depth characters of suffix sf.
func (wk *worker) tail(sf Suffix, depth int32) []byte {
	return wk.access(sf.Sid)[int(sf.Pos)+int(depth):]
}

// basesFromOf returns the index just past the last masked byte of s,
// the bases of sequence sid, scanning s only the first time it is asked.
func (wk *worker) basesFromOf(sid int32, s []byte) int {
	if int(sid) >= len(wk.basesFrom) {
		wk.basesFrom = append(wk.basesFrom, make([]int32, int(sid)+1-len(wk.basesFrom))...)
	}
	if e := wk.basesFrom[sid]; e > 0 {
		return int(e) - 1
	}
	e := len(s)
	for e > 0 && seq.IsBase(s[e-1]) {
		e--
	}
	wk.basesFrom[sid] = int32(e) + 1
	return e
}

// commonPrefix returns the length of the longest common prefix of a and
// b, comparing eight bytes at a time: the first differing byte of two
// little-endian words is the lowest set byte of their XOR.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	k := 0
	for ; k+8 <= n; k += 8 {
		if x := binary.LittleEndian.Uint64(a[k:]) ^ binary.LittleEndian.Uint64(b[k:]); x != 0 {
			return k + bits.TrailingZeros64(x)/8
		}
	}
	for k < n && a[k] == b[k] {
		k++
	}
	return k
}

// Child classes of a branch in creation order: the shared terminator,
// masked singletons, then the bases from T down to A (a new child goes
// in front, so siblings read A, C, G, T, masked, ended). A base with
// code c is class classA − c, which puts the masked code −1 past classA.
const (
	classEnded = iota
	classMasked
	classT
	classA     = classT + 3
	numClasses = classA + 1
)

// build constructs the subtree for Sufs[lo:hi], which all share their
// first depth characters, and returns its node ID. A node costs two
// sequence lookups per suffix, whatever the length of its edge, with at
// most two sequences in hand (see Access); work is charged as if every
// suffix were classified once per character of the edge and once at
// the node.
func (wk *worker) build(lo, hi, depth, parent int32) int32 {
	sufs := wk.sufs[lo:hi]
	// Path compression: the edge grows by the longest prefix the tails
	// share with the first one, clamped at its first masked byte (equal
	// bytes that are bases are equal bases; a masked byte matches
	// nothing) — for a singleton, to the end of its unmasked run, which
	// is the end of the read once the tail starts past its last mask.
	// The tails are compared in turn, each with the prefix the ones
	// before it share, held as a prefix of the previous tail, so no
	// sequence is used past the lookup after its own.
	first := sufs[0]
	s := wk.access(first.Sid)
	at := int(first.Pos) + int(depth)
	masked := at < wk.basesFromOf(first.Sid, s)
	ref := s[at:]
	for _, sf := range sufs[1:] {
		t := wk.tail(sf, depth)
		ref = t[:commonPrefix(ref, t)]
	}
	if masked {
		for k, c := range ref {
			if !seq.IsBase(c) {
				ref = ref[:k]
				break
			}
		}
	}
	depth += int32(len(ref))
	wk.work += int64(len(ref)) * int64(len(sufs))
	if len(sufs) == 1 {
		return wk.newNode(parent, depth, lo, hi)
	}

	// Classify every suffix by its character at the branching depth.
	var count [numClasses]int32
	class := wk.class[:len(sufs)]
	for i, sf := range sufs {
		cl := uint8(classEnded)
		if t := wk.tail(sf, depth); len(t) > 0 {
			cl = uint8(classA - seq.Code(t[0]))
			if cl > classA {
				cl = classMasked
			}
		}
		class[i] = cl
		count[cl]++
	}
	wk.work += int64(len(sufs))
	if count[classEnded] == int32(len(sufs)) {
		// Everything ends here: one leaf of identical suffixes.
		return wk.newNode(parent, depth, lo, hi)
	}

	// Branch point: stable partition by class, then the internal node
	// and its children over the sub-ranges.
	var next [numClasses]int32
	for cl := 1; cl < numClasses; cl++ {
		next[cl] = next[cl-1] + count[cl-1]
	}
	tmp := wk.tmp[:len(sufs)]
	for i, sf := range sufs {
		tmp[next[class[i]]] = sf
		next[class[i]]++
	}
	copy(sufs, tmp)
	u := wk.newNode(parent, depth, -1, -1)
	for cl, n := range count {
		switch {
		case n == 0:
		case cl == classEnded:
			wk.newNode(u, depth, lo, lo+n)
		case cl == classMasked:
			for i := lo; i < lo+n; i++ {
				wk.newNode(u, depth, i, i+1)
			}
		default:
			wk.build(lo, lo+n, depth+1, u)
		}
		lo += n
	}
	return u
}
