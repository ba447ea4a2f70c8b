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
	"slices"
	"sort"

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

// Access returns the bases of a sequence ID; the tree builder and the
// pair generator use it instead of a concrete store so the parallel
// construction can substitute locally fetched fragments.
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
// prefix length w. Suffixes whose w-window is invalid are dropped.
func Build(access Access, sufs []Suffix, w int) *Tree {
	ks := make([]Keyed, 0, len(sufs))
	for _, sf := range sufs {
		if key, ok := BucketKey(access(sf.Sid), int(sf.Pos), w); ok {
			ks = append(ks, Keyed{key, sf})
		}
	}
	ib := NewIncrementalBuilder(w)
	ib.AddKeyed(access, ks)
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
// fetched together, so the access function may differ per AddBucket
// call (sequence bytes are needed only during that call — the finished
// tree stores no labels).
type IncrementalBuilder struct {
	b builder
}

// NewIncrementalBuilder returns a builder for a forest with bucket
// prefix length w.
func NewIncrementalBuilder(w int) *IncrementalBuilder {
	return &IncrementalBuilder{b: builder{tree: &Tree{W: w}}}
}

// AddBucket builds one bucket's subtree. The bucket's suffixes must
// share their first w characters. Suffixes are ordered canonically
// (by sequence ID, then position) first, so the tree — and therefore
// which occurrence duplicate elimination retains during pair
// generation — is identical no matter how the bucket was assembled.
func (ib *IncrementalBuilder) AddBucket(access Access, bucket []Suffix) {
	if len(bucket) == 0 {
		return
	}
	sort.Slice(bucket, func(i, j int) bool {
		if bucket[i].Sid != bucket[j].Sid {
			return bucket[i].Sid < bucket[j].Sid
		}
		return bucket[i].Pos < bucket[j].Pos
	})
	ib.b.access = access
	root := ib.b.build(bucket, int32(ib.b.tree.W), NoNode)
	ib.b.tree.Roots = append(ib.b.tree.Roots, root)
	ib.b.access = nil
}

// AddKeyed sorts ks by key and builds every equal-key run as one
// bucket, in ascending key order; it returns the number of buckets.
// The access function must serve every sequence ks references.
func (ib *IncrementalBuilder) AddKeyed(access Access, ks []Keyed) (nbuckets int) {
	sort.Slice(ks, func(i, j int) bool { return ks[i].Key < ks[j].Key })
	t := ib.b.tree
	t.Nodes = slices.Grow(t.Nodes, len(ks)/2+4)
	t.Sufs = slices.Grow(t.Sufs, len(ks))
	var bucket []Suffix
	EachRun(ks, func(lo, hi int) {
		bucket = bucket[:0]
		for _, k := range ks[lo:hi] {
			bucket = append(bucket, k.Suf)
		}
		ib.AddBucket(access, bucket)
		nbuckets++
	})
	return nbuckets
}

// Tree returns the accumulated forest.
func (ib *IncrementalBuilder) Tree() *Tree { return ib.b.tree }

// Work returns the number of characters the builder has examined, an
// exact measure of construction work for modeled-time accounting.
func (ib *IncrementalBuilder) Work() int64 { return ib.b.work }

type builder struct {
	access Access
	tree   *Tree
	work   int64 // characters examined; exact construction work measure
}

func (b *builder) newNode(parent, depth int32) int32 {
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

func (b *builder) newLeaf(parent, depth int32, sufs []Suffix) int32 {
	id := b.newNode(parent, depth)
	n := &b.tree.Nodes[id]
	n.SufStart = int32(len(b.tree.Sufs))
	b.tree.Sufs = append(b.tree.Sufs, sufs...)
	n.SufEnd = int32(len(b.tree.Sufs))
	return id
}

func (b *builder) attach(parent, child int32) {
	c := &b.tree.Nodes[child]
	c.Parent = parent
	c.NextSib = b.tree.Nodes[parent].FirstChild
	b.tree.Nodes[parent].FirstChild = child
}

// charAt classifies the character of suffix sf at string-depth depth:
// 0..3 base code, -1 masked, -2 end of string.
func (b *builder) charAt(sf Suffix, depth int32) int {
	b.work++
	s := b.access(sf.Sid)
	i := int(sf.Pos) + int(depth)
	if i >= len(s) {
		return -2
	}
	return seq.Code(s[i])
}

// build constructs the subtree for sufs, which all share their first
// `depth` characters, and returns its node ID.
func (b *builder) build(sufs []Suffix, depth int32, parent int32) int32 {
	if len(sufs) == 1 {
		// A singleton's edge extends to the end of its suffix; its
		// string-depth is the full remaining length. A masked byte in
		// the remainder cannot matter: singleton leaves generate no
		// pairs and the depth is only an ordering key, but for exact
		// semantics clamp the depth at the first masked byte.
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
		// Path compression: with a single surviving base class and no
		// terminations the edge simply extends.
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
			// Everything ends here: one leaf of identical suffixes.
			return b.newLeaf(parent, depth, ended)
		}

		// Branch point: create the internal node and its children.
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
