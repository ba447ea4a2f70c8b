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
// everything including itself. lsets are linked lists so a parent's
// lsets are formed from its children's in O(Σ²) time.
package pairgen

import (
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
	Emitted      int64 // pairs delivered (canonical orientation)
	Skipped      int64 // cross-product pairs dropped by canonicalization
	NodesVisited int64
}

// Generate streams all promising pairs to yield in decreasing order of
// maximal-match length. Generation stops early if yield returns false.
func Generate(tree *suffixtree.Tree, cfg Config, yield func(Pair) bool) Stats {
	if cfg.Psi < tree.W {
		panic("pairgen: ψ must be ≥ the tree bucket prefix length w")
	}
	g := &generator{tree: tree, cfg: cfg, yield: yield}
	g.run()
	return g.stats
}

const nilRef = int32(-1)

// cell is one linked-list element of an lset.
type cell struct {
	suf  suffixtree.Suffix
	next int32
}

// listRef is the head/tail of one lset class list.
type listRef struct {
	head, tail int32
	size       int32
}

func (l listRef) empty() bool { return l.head == nilRef }

type nodeLsets [suffixtree.NumPrevClasses]listRef

type generator struct {
	tree  *suffixtree.Tree
	cfg   Config
	yield func(Pair) bool
	stats Stats

	cells []cell
	lsets []nodeLsets
	// seen is the boolean array of the duplicate-elimination variant,
	// indexed by sequence ID (2n entries).
	seen    []bool
	stopped bool
}

func (g *generator) run() {
	t := g.tree
	g.cells = make([]cell, 0, len(t.Sufs))
	g.lsets = make([]nodeLsets, t.NumNodes())
	for i := range g.lsets {
		for c := range g.lsets[i] {
			g.lsets[i][c] = listRef{head: nilRef, tail: nilRef}
		}
	}
	if g.cfg.DuplicateElimination {
		g.seen = make([]bool, 2*g.cfg.NumFragments)
	}

	order := t.NodesByDepthDesc(g.cfg.Psi)
	for _, u := range order {
		if g.stopped {
			return
		}
		g.stats.NodesVisited++
		if t.IsLeaf(u) {
			g.processLeaf(u)
		} else {
			g.processInternal(u)
		}
	}
}

func (g *generator) newCell(sf suffixtree.Suffix) int32 {
	id := int32(len(g.cells))
	g.cells = append(g.cells, cell{suf: sf, next: nilRef})
	return id
}

func (ls *nodeLsets) push(class int8, id int32, cells []cell) {
	r := &ls[class]
	if r.head == nilRef {
		r.head, r.tail = id, id
	} else {
		cells[r.tail].next = id
		r.tail = id
	}
	r.size++
}

// concat appends other's class list onto ls's in O(1).
func (ls *nodeLsets) concat(class int, other listRef, cells []cell) {
	if other.head == nilRef {
		return
	}
	r := &ls[class]
	if r.head == nilRef {
		*r = other
		return
	}
	cells[r.tail].next = other.head
	r.tail = other.tail
	r.size += other.size
}

// processLeaf builds the leaf's lsets from its suffixes and generates
// the within-leaf pairs: classes c < c′ freely, and λ with itself
// (step S3). Right-maximality is automatic at a leaf.
func (g *generator) processLeaf(u int32) {
	t := g.tree
	for _, sf := range t.LeafSuffixes(u) {
		g.lsets[u].push(sf.Prev, g.newCell(sf), g.cells)
	}
	depth := t.Nodes[u].Depth
	ls := &g.lsets[u]
	for c := 0; c < suffixtree.NumPrevClasses; c++ {
		for cp := c + 1; cp < suffixtree.NumPrevClasses; cp++ {
			g.cross(ls[c], ls[cp], depth)
		}
	}
	// λ × λ: unordered pairs within the λ list.
	g.crossSelf(ls[suffixtree.PrevNone], depth)
}

// processInternal generates cross-child pairs and then dissolves the
// children's lsets into u's (step S4).
func (g *generator) processInternal(u int32) {
	t := g.tree
	var kids []int32
	t.Children(u, func(v int32) { kids = append(kids, v) })

	if g.cfg.DuplicateElimination {
		g.dedupChildren(kids)
	}

	depth := t.Nodes[u].Depth
	for i := 0; i < len(kids); i++ {
		for j := i + 1; j < len(kids); j++ {
			li, lj := &g.lsets[kids[i]], &g.lsets[kids[j]]
			for c := 0; c < suffixtree.NumPrevClasses; c++ {
				for cp := 0; cp < suffixtree.NumPrevClasses; cp++ {
					if c == cp && c != int(suffixtree.PrevNone) {
						continue // same preceding base: not left-maximal
					}
					g.cross(li[c], lj[cp], depth)
				}
			}
		}
	}

	// Union children lsets into u.
	for _, v := range kids {
		for c := 0; c < suffixtree.NumPrevClasses; c++ {
			g.lsets[u].concat(c, g.lsets[v][c], g.cells)
			g.lsets[v][c] = listRef{head: nilRef, tail: nilRef}
		}
	}
}

// dedupChildren removes all but one occurrence of each sequence across
// the children's lsets, using the 2n boolean array with a mark pass
// and an unmark pass so the array is clean for the next node.
func (g *generator) dedupChildren(kids []int32) {
	for _, v := range kids {
		for c := range g.lsets[v] {
			r := &g.lsets[v][c]
			prev := nilRef
			id := r.head
			for id != nilRef {
				next := g.cells[id].next
				sid := g.cells[id].suf.Sid
				if g.seen[sid] {
					// Unlink this duplicate.
					if prev == nilRef {
						r.head = next
					} else {
						g.cells[prev].next = next
					}
					if r.tail == id {
						r.tail = prev
					}
					r.size--
				} else {
					g.seen[sid] = true
					prev = id
				}
				id = next
			}
		}
	}
	// Reset marks.
	for _, v := range kids {
		for c := range g.lsets[v] {
			for id := g.lsets[v][c].head; id != nilRef; id = g.cells[id].next {
				g.seen[g.cells[id].suf.Sid] = false
			}
		}
	}
}

func (g *generator) cross(a, b listRef, depth int32) {
	if g.stopped || a.empty() || b.empty() {
		return
	}
	for x := a.head; x != nilRef; x = g.cells[x].next {
		for y := b.head; y != nilRef; y = g.cells[y].next {
			if !g.emit(g.cells[x].suf, g.cells[y].suf, depth) {
				return
			}
		}
	}
}

func (g *generator) crossSelf(a listRef, depth int32) {
	if g.stopped || a.empty() {
		return
	}
	for x := a.head; x != nilRef; x = g.cells[x].next {
		for y := g.cells[x].next; y != nilRef; y = g.cells[y].next {
			if !g.emit(g.cells[x].suf, g.cells[y].suf, depth) {
				return
			}
		}
	}
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
	if !g.yield(Pair{ASid: a.Sid, BSid: b.Sid, APos: a.Pos, BPos: b.Pos, MatchLen: depth}) {
		g.stopped = true
		return false
	}
	return true
}
