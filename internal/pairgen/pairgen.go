// Package pairgen implements the paper's on-demand promising-pair
// generation algorithm (Section 5): given the generalized suffix tree
// of all fragments and their reverse complements, it emits every pair
// of sequences sharing a maximal exact match of length ≥ ψ, in
// decreasing order of maximal-match length, in O(1) time per pair and
// linear space — pairs are streamed, never stored.
//
// The algorithm maintains lsets at each tree node: the suffixes (or,
// with duplicate elimination, the sequences) in the node's subtree
// partitioned by the character preceding each suffix. Pairs are
// generated at a node u by cross products between lsets of different
// children (right-maximality, condition C3 of Lemma 1) and different
// preceding-character classes (left-maximality, C4); the λ class —
// string starts and positions after masked bytes — pairs with
// everything including itself.
//
// Generation makes two passes over a forest. The first forms the lsets
// in memory order: the builder numbers nodes in preorder, so walking
// node IDs downwards meets every child before its parent, and a node's
// children's lsets are the top blocks of a stack, in sibling order.
// There is one stack per preceding-character class, so a child's
// class-c list is a run of stack c and the parent's class-c list is
// its children's runs side by side; duplicate elimination compacts
// those runs in place. Where a node of depth ≥ ψ has a cross pair, the
// first pass copies out the child lists that take part in one. The
// second pass visits only those nodes, in decreasing depth order, and
// emits their cross products. The stacks hold one bucket's pending
// lsets, and every retained suffix is in a cross pair, so at most
// 2·(Emitted + Skipped) suffixes are retained.
package pairgen

import (
	"cmp"
	"slices"

	"repro/internal/pool"
	"repro/internal/suffixtree"
)

// Pair is one promising pair: sequences ASid and BSid share the
// maximal match A[APos:APos+MatchLen] == B[BPos:BPos+MatchLen].
// Sequence IDs are in the store's 2n space (forward + reverse
// complement); pairs are canonicalized so the lower-numbered fragment
// appears in forward orientation, which halves mirror-image
// duplicates.
type Pair struct {
	ASid, BSid int32
	APos, BPos int32
	MatchLen   int32
}

// Config parameterizes generation.
type Config struct {
	// Psi is the minimum maximal-match length ψ; must be ≥ the tree's
	// bucket prefix length w.
	Psi int
	// NumFragments is the store's fragment count n, used to resolve
	// sequence IDs into fragments and orientations.
	NumFragments int
	// DuplicateElimination enables the fragment-level lset variant
	// (Section 5): each sequence pair is generated at most once per
	// node rather than once per suffix pair.
	DuplicateElimination bool
}

// Stats counts generator activity.
type Stats struct {
	Emitted int64 // pairs delivered (canonical orientation)
	Skipped int64 // cross-product pairs dropped by canonicalization
	// NodesVisited counts the nodes of depth ≥ ψ in processing order
	// (NodesByDepthDesc) up to the one whose pair stopped generation,
	// or all of them.
	NodesVisited int64
}

// Generate streams all promising pairs to yield in decreasing order of
// maximal-match length. Generation stops early if yield returns false.
// The forest must number its nodes in preorder, as IncrementalBuilder
// does; Generate panics on one that does not.
//
// The first pass runs on every core: buckets are independent, so
// contiguous runs of them (node ranges between roots) are collected
// side by side and merged (merge). The second pass, and so every call
// of yield, is on the caller's goroutine.
func Generate(tree *suffixtree.Tree, cfg Config, yield func(Pair) bool) Stats {
	s := segment{cfg: cfg}
	s.add(tree)
	st, _ := s.emit(yield)
	return st
}

// A Sweep is a GST delivered segment by segment, each segment as one or
// more sub-forests in key order (pgst.Sweep and pgst.Local.Sweep, bound
// to their store): it calls add with every sub-forest of a segment,
// then end with the cost of having built the segment (any unit), and
// stops, returning false, once end returns false. A sub-forest is not
// read after add returns, so the sweep may build a later one into its
// storage while the segment's pairs are emitted.
type Sweep func(add func(*suffixtree.Tree), end func(cost float64) bool) bool

// GenerateSweep streams the pairs of every segment of sweep to yield, a
// segment's in the order Generate gives the union of its sub-forests,
// and returns the summed Stats. Each sub-forest's first pass runs in
// add; its segment's pairs are emitted in end, after the last one's.
// Generation stops early if yield returns false.
func GenerateSweep(sweep Sweep, cfg Config, yield func(Pair) bool) (total Stats) {
	s := segment{cfg: cfg}
	sweep(s.add, func(float64) bool {
		st, more := s.emit(yield)
		total = total.add(st)
		return more
	})
	return total
}

func (st Stats) add(o Stats) Stats {
	return Stats{st.Emitted + o.Emitted, st.Skipped + o.Skipped, st.NodesVisited + o.NodesVisited}
}

// segment holds the first-pass parts of one segment's sub-forests, in
// ascending node order: a later sub-forest's buckets follow an earlier
// one's in key order, so its parts merge as a higher node range of one
// forest would. An emitted segment's parts, and the merge that emitted
// them, are reused, arrays and all, by the next segment.
type segment struct {
	cfg   Config
	parts []*generator
	spare []*generator
	slots [][2]int64 // the merge's
}

// add runs the first pass over t, collecting its node ranges
// (chunkCuts) side by side. Nothing reads t once add returns.
func (s *segment) add(t *suffixtree.Tree) {
	if s.cfg.Psi < t.W {
		panic("pairgen: ψ must be ≥ the tree bucket prefix length w")
	}
	cuts := chunkCuts(t)
	lo := len(s.parts)
	for range len(cuts) - 1 {
		var p *generator
		if n := len(s.spare); n > 0 {
			p, s.spare = s.spare[n-1], s.spare[:n-1]
		}
		s.parts = append(s.parts, p)
	}
	parts := s.parts[lo:]
	pool.For(len(parts), 2, nil, func(k int) {
		if parts[k] == nil {
			// Made on the goroutine that fills it: parts made side by
			// side on one would share cache lines their walks write.
			parts[k] = &generator{cfg: s.cfg}
		}
		parts[k].collect(t, cuts[k], cuts[k+1])
	})
}

// emit merges the parts added since the last emit and runs the second
// pass over them, returning its Stats and false if yield stopped it.
func (s *segment) emit(yield func(Pair) bool) (Stats, bool) {
	g := &generator{cfg: s.cfg, yield: yield, slots: s.slots[:0]}
	g.merge(s.parts)
	s.slots = g.slots
	more := g.emitAll()
	for _, p := range s.parts {
		p.slots, p.retained, p.lists, p.emitters = p.slots[:0], p.retained[:0], p.lists[:0], p.emitters[:0]
	}
	s.spare = append(s.spare, s.parts...)
	clear(s.parts)
	s.parts = s.parts[:0]
	return g.stats, more
}

// minChunkNodes is the fewest nodes Generate's first pass hands one
// goroutine: below twice as many it runs on the caller alone. A
// variable only so tests can split small forests.
var minChunkNodes = 8192

// chunkCuts splits the forest's node IDs into contiguous ranges
// [cuts[k], cuts[k+1]) of about equal size, one per core
// (pool.Chunks), each cut at a bucket root: a preorder forest numbers
// a bucket's nodes from its root up to the next root.
func chunkCuts(t *suffixtree.Tree) []int32 {
	n := len(t.Nodes)
	chunks := pool.Chunks(n, minChunkNodes)
	cuts := []int32{0}
	for _, r := range t.Roots {
		if k := len(cuts); k < chunks && int(r) >= k*n/chunks && r > cuts[k-1] {
			cuts = append(cuts, r)
		}
	}
	return append(cuts, int32(n))
}

const numClasses = suffixtree.NumPrevClasses

// block is one node's lsets on the stacks: its class-c list is
// stacks[c][start[c]:] up to the next block's start[c].
type block struct {
	owner int32
	start [numClasses]int32
}

// list is one retained class list of one child of an emitting node,
// retained[lo:hi].
type list struct {
	kid    int32 // the child's index among its siblings; 0 at a leaf
	class  int8
	lo, hi int32
}

// emitter is a node of depth ≥ ψ with at least one cross pair, and its
// retained lists lists[lo:hi] in (kid, class) order, in the arrays of
// the first-pass part that collected it.
type emitter struct {
	// pos is first the count of nodes met before this one in its
	// (depth, leafness) slot, then its 1-based position in processing
	// order.
	pos    int64
	depth  int32
	lo, hi int32
	part   uint16 // its part's index among the merged parts
	leaf   bool
}

// generator is one first-pass part — the walk over one node range,
// holding the lists it retained — or the merge of a segment's parts,
// which runs the second pass over their lists.
type generator struct {
	tree  *suffixtree.Tree // while collecting
	cfg   Config
	yield func(Pair) bool
	stats Stats
	parts []*generator // merged

	stacks [numClasses][]suffixtree.Suffix
	blocks []block
	kids   []int32 // children of the node being merged
	// seen is the boolean array of the duplicate-elimination variant,
	// indexed by sequence ID (2n entries).
	seen []bool
	// slots[d] counts the leaf and internal nodes of depth d ≥ ψ.
	slots    [][2]int64
	retained []suffixtree.Suffix
	lists    []list
	emitters []emitter
}

// collect is the first pass over the node IDs [lo, hi) of t: it walks
// them downwards, forming each node's lsets from its children's blocks,
// and records the emitters. Every bucket root pops its block, so the
// stacks are empty again once it returns.
func (g *generator) collect(t *suffixtree.Tree, lo, hi int32) {
	if g.cfg.DuplicateElimination && g.seen == nil {
		g.seen = make([]bool, 2*g.cfg.NumFragments)
	}
	g.tree = t
	defer func() { g.tree = nil }()
	for u := hi - 1; u >= lo; u-- {
		n := &t.Nodes[u]
		if n.FirstChild == suffixtree.NoNode {
			g.leaf(u, n)
		} else {
			g.internal(u, n)
		}
		if n.Parent == suffixtree.NoNode {
			g.pop(len(g.blocks) - 1) // a bucket root's lsets feed nothing
		}
	}
}

// merge takes the first-pass results of parts, which collected
// ascending node ranges, as if one walk had collected them all. The
// walk meets higher IDs first, so an emitter's count of the nodes met
// before it in its slot grows by the slot counts of every later part.
// Each part keeps its retained suffixes and lists, its emitters naming
// it; the emitters are gathered into the array of the part with most
// room, in any order, since emitAll ranks them.
func (g *generator) merge(parts []*generator) {
	if len(parts) > 1<<16 {
		panic("pairgen: more first-pass parts than an emitter can name")
	}
	n, big := 0, 0
	for k := len(parts) - 1; k >= 0; k-- {
		p := parts[k]
		for i := range p.emitters {
			e := &p.emitters[i]
			e.part = uint16(k)
			if int(e.depth) < len(g.slots) {
				e.pos += g.slots[e.depth][kind(e.leaf)]
			}
		}
		for d, c := range p.slots {
			if d == len(g.slots) {
				g.slots = append(g.slots, [2]int64{})
			}
			g.slots[d][0] += c[0]
			g.slots[d][1] += c[1]
		}
		n += len(p.emitters)
		if cap(p.emitters) > cap(parts[big].emitters) {
			big = k
		}
	}
	g.parts = parts
	if len(parts) == 0 {
		return
	}
	g.emitters = slices.Grow(parts[big].emitters, n-len(parts[big].emitters))
	for k, p := range parts {
		if k != big {
			g.emitters = append(g.emitters, p.emitters...)
		}
	}
	parts[big].emitters = g.emitters
}

// kind is the slot index of a leaf (0) or internal node (1).
func kind(leaf bool) int {
	if leaf {
		return 0
	}
	return 1
}

// tops returns the stack heights: the start of a block pushed now.
func (g *generator) tops() (s [numClasses]int32) {
	for c := range s {
		s[c] = int32(len(g.stacks[c]))
	}
	return s
}

// end returns where the class-c list of blocks[i] ends.
func (g *generator) end(i, c int) int32 {
	if i+1 < len(g.blocks) {
		return g.blocks[i+1].start[c]
	}
	return int32(len(g.stacks[c]))
}

// pop drops blocks[b:] and their suffixes.
func (g *generator) pop(b int) {
	for c := range g.stacks {
		g.stacks[c] = g.stacks[c][:g.blocks[b].start[c]]
	}
	g.blocks = g.blocks[:b]
}

// count tallies a node of depth ≥ ψ in its slot and returns the number
// tallied there before it, all of higher ID.
func (g *generator) count(depth int32, internal int) int64 {
	for int(depth) >= len(g.slots) {
		g.slots = append(g.slots, [2]int64{})
	}
	n := g.slots[depth][internal]
	g.slots[depth][internal]++
	return n
}

// leaf pushes leaf u's suffixes by class. Within a leaf, right-
// maximality is automatic: a class pairs with every other class, and
// λ with itself (step S3).
func (g *generator) leaf(u int32, n *suffixtree.Node) {
	start := g.tops()
	g.blocks = append(g.blocks, block{owner: u, start: start})
	if n.Depth < int32(g.cfg.Psi) {
		return
	}
	pos := g.count(n.Depth, 0)
	for _, sf := range g.tree.Sufs[n.SufStart:n.SufEnd] {
		g.stacks[sf.Prev] = append(g.stacks[sf.Prev], sf)
	}
	nonEmpty := 0
	for c := range start {
		if len(g.stacks[c]) > int(start[c]) {
			nonEmpty++
		}
	}
	lo := len(g.lists)
	for c := range start {
		cells := g.stacks[c][start[c]:]
		if len(cells) > 0 && (nonEmpty > 1 || c == int(suffixtree.PrevNone) && len(cells) > 1) {
			g.retain(0, c, cells)
		}
	}
	g.addEmitter(n.Depth, true, pos, lo)
}

// internal merges the children's blocks, the top ones in sibling
// order, into u's (step S4), after retaining the lists that cross.
func (g *generator) internal(u int32, n *suffixtree.Node) {
	g.kids = g.kids[:0]
	for v := n.FirstChild; v != suffixtree.NoNode; v = g.tree.Nodes[v].NextSib {
		g.kids = append(g.kids, v)
	}
	b := len(g.blocks) - len(g.kids)
	for i, v := range g.kids {
		if b < 0 || g.blocks[b+i].owner != v {
			panic("pairgen: forest nodes are not numbered in preorder")
		}
	}
	if n.Depth < int32(g.cfg.Psi) {
		g.pop(b)
		g.blocks = append(g.blocks, block{owner: u, start: g.tops()})
		return
	}
	pos := g.count(n.Depth, 1)
	if g.seen != nil {
		g.dedup(b)
	}
	lo := len(g.lists)
	g.retainCrossing(b)
	g.addEmitter(n.Depth, false, pos, lo)
	start := g.blocks[b].start
	g.blocks = append(g.blocks[:b], block{owner: u, start: start})
}

// dedup keeps the first occurrence of each sequence in blocks[b:], kid
// by kid in sibling order and class by class within a kid, compacting
// each stack in place, then clears the marks.
func (g *generator) dedup(b int) {
	at := g.blocks[b].start
	for i := b; i < len(g.blocks); i++ {
		for c := range at {
			s := g.stacks[c]
			lo, hi := g.blocks[i].start[c], g.end(i, c)
			g.blocks[i].start[c] = at[c]
			for _, sf := range s[lo:hi] {
				if !g.seen[sf.Sid] {
					g.seen[sf.Sid] = true
					s[at[c]] = sf
					at[c]++
				}
			}
		}
	}
	for c := range at {
		g.stacks[c] = g.stacks[c][:at[c]]
		for _, sf := range g.stacks[c][g.blocks[b].start[c]:] {
			g.seen[sf.Sid] = false
		}
	}
}

// retainCrossing retains every non-empty class list of the children
// blocks[b:] that meets a compatible non-empty list of another child:
// one of another class, or, for λ, any.
func (g *generator) retainCrossing(b int) {
	var lists [numClasses]int // the children's non-empty class-c lists
	total := 0
	for i := b; i < len(g.blocks); i++ {
		for c := range lists {
			if g.end(i, c) > g.blocks[i].start[c] {
				lists[c]++
				total++
			}
		}
	}
	for i := b; i < len(g.blocks); i++ {
		own := 0
		for c := range lists {
			if g.end(i, c) > g.blocks[i].start[c] {
				own++
			}
		}
		for c := range lists {
			cells := g.stacks[c][g.blocks[i].start[c]:g.end(i, c)]
			others := total - own // the other children's lists
			if c != int(suffixtree.PrevNone) {
				others -= lists[c] - 1 // less those of class c
			}
			if len(cells) > 0 && others > 0 {
				g.retain(int32(i-b), c, cells)
			}
		}
	}
}

func (g *generator) retain(kid int32, class int, cells []suffixtree.Suffix) {
	lo := len(g.retained)
	g.retained = append(g.retained, cells...)
	g.lists = append(g.lists, list{kid: kid, class: int8(class), lo: int32(lo), hi: int32(len(g.retained))})
}

func (g *generator) addEmitter(depth int32, leaf bool, pos int64, lo int) {
	if len(g.lists) > lo {
		g.emitters = append(g.emitters, emitter{depth: depth, leaf: leaf, pos: pos, lo: int32(lo), hi: int32(len(g.lists))})
	}
}

// emitAll is the second pass: it ranks the emitters in processing
// order (step S2: depth descending, leaves first, then node ID) and
// emits their cross products until yield stops, returning false if it
// did.
func (g *generator) emitAll() bool {
	// Turn each slot's count into the number of nodes up to its end.
	var total int64
	for d := len(g.slots) - 1; d >= 0; d-- {
		for k := range g.slots[d] {
			total += g.slots[d][k]
			g.slots[d][k] = total
		}
	}
	for i := range g.emitters {
		e := &g.emitters[i]
		e.pos = g.slots[e.depth][kind(e.leaf)] - e.pos
	}
	slices.SortFunc(g.emitters, func(a, b emitter) int { return cmp.Compare(a.pos, b.pos) })
	g.stats.NodesVisited = total
	for _, e := range g.emitters {
		if !g.emitNode(e) {
			g.stats.NodesVisited = e.pos
			return false
		}
	}
	return true
}

// emitNode generates an emitter's pairs in the order of the lsets it
// would cross: at a leaf classes c < c′ and then λ with itself, at an
// internal node child pairs i < j and within them classes (c, c′).
// Returns false once the consumer has stopped.
func (g *generator) emitNode(e emitter) bool {
	p := g.parts[e.part]
	ls, rs := p.lists[e.lo:e.hi], p.retained
	if e.leaf {
		for a, x := range ls {
			for _, y := range ls[a+1:] {
				if !g.cross(rs, x, y, e.depth) {
					return false
				}
			}
		}
		last := ls[len(ls)-1]
		return last.class != suffixtree.PrevNone || g.crossSelf(rs, last, e.depth)
	}
	for i := 0; i < len(ls); {
		iEnd := kidEnd(ls, i)
		for j := iEnd; j < len(ls); {
			jEnd := kidEnd(ls, j)
			for _, x := range ls[i:iEnd] {
				for _, y := range ls[j:jEnd] {
					if x.class == y.class && x.class != suffixtree.PrevNone {
						continue // same preceding base: not left-maximal
					}
					if !g.cross(rs, x, y, e.depth) {
						return false
					}
				}
			}
			j = jEnd
		}
		i = iEnd
	}
	return true
}

// kidEnd returns the end of the run of ls[i]'s child's lists.
func kidEnd(ls []list, i int) int {
	j := i + 1
	for j < len(ls) && ls[j].kid == ls[i].kid {
		j++
	}
	return j
}

// cross emits the cross product of lists a and b of the retained
// suffixes rs.
func (g *generator) cross(rs []suffixtree.Suffix, a, b list, depth int32) bool {
	for _, x := range rs[a.lo:a.hi] {
		for _, y := range rs[b.lo:b.hi] {
			if !g.emit(x, y, depth) {
				return false
			}
		}
	}
	return true
}

// crossSelf emits the pairs within list a of the retained suffixes rs.
func (g *generator) crossSelf(rs []suffixtree.Suffix, a list, depth int32) bool {
	xs := rs[a.lo:a.hi]
	for i, x := range xs {
		for _, y := range xs[i+1:] {
			if !g.emit(x, y, depth) {
				return false
			}
		}
	}
	return true
}

// emit canonicalizes and delivers one pair; returns false once the
// consumer has stopped.
func (g *generator) emit(a, b suffixtree.Suffix, depth int32) bool {
	n := int32(g.cfg.NumFragments)
	fa, fb := a.Sid%n, b.Sid%n
	if fa == fb {
		g.stats.Skipped++
		return true
	}
	// Canonical orientation: the lower-numbered fragment must appear
	// forward; the mirror-image pair carries the same information and
	// is (or was) generated elsewhere in the tree.
	if fa < fb {
		if a.Sid >= n {
			g.stats.Skipped++
			return true
		}
	} else {
		if b.Sid >= n {
			g.stats.Skipped++
			return true
		}
		a, b = b, a
	}
	g.stats.Emitted++
	return g.yield(Pair{ASid: a.Sid, BSid: b.Sid, APos: a.Pos, BPos: b.Pos, MatchLen: depth})
}
