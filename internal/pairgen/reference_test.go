package pairgen

// referenceGenerate is the depth-ordered generator the two-pass
// Generate replaced, kept as its oracle: it visits every node of depth
// ≥ ψ in NodesByDepthDesc order and keeps every node's lsets as linked
// lists of cells in a table of all nodes.

import (
	"repro/internal/suffixtree"
)

// referenceGenerate streams all promising pairs to yield in decreasing order of
// maximal-match length. Generation stops early if yield returns false.
func referenceGenerate(tree *suffixtree.Tree, cfg Config, yield func(Pair) bool) Stats {
	if cfg.Psi < tree.W {
		panic("pairgen: ψ must be ≥ the tree bucket prefix length w")
	}
	g := &refGenerator{tree: tree, cfg: cfg, yield: yield}
	g.run()
	return g.stats
}

const refNil = int32(-1)

// refCell is one linked-list element of an lset.
type refCell struct {
	suf  suffixtree.Suffix
	next int32
}

// refList is the head/tail of one lset class list.
type refList struct {
	head, tail int32
	size       int32
}

func (l refList) empty() bool { return l.head == refNil }

type refLsets [suffixtree.NumPrevClasses]refList

type refGenerator struct {
	tree  *suffixtree.Tree
	cfg   Config
	yield func(Pair) bool
	stats Stats

	cells []refCell
	lsets []refLsets
	// seen is the boolean array of the duplicate-elimination variant,
	// indexed by sequence ID (2n entries).
	seen    []bool
	stopped bool
}

func (g *refGenerator) run() {
	t := g.tree
	g.cells = make([]refCell, 0, len(t.Sufs))
	g.lsets = make([]refLsets, t.NumNodes())
	for i := range g.lsets {
		for c := range g.lsets[i] {
			g.lsets[i][c] = refList{head: refNil, tail: refNil}
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

func (g *refGenerator) newCell(sf suffixtree.Suffix) int32 {
	id := int32(len(g.cells))
	g.cells = append(g.cells, refCell{suf: sf, next: refNil})
	return id
}

func (ls *refLsets) push(class int8, id int32, cells []refCell) {
	r := &ls[class]
	if r.head == refNil {
		r.head, r.tail = id, id
	} else {
		cells[r.tail].next = id
		r.tail = id
	}
	r.size++
}

// concat appends other's class list onto ls's in O(1).
func (ls *refLsets) concat(class int, other refList, cells []refCell) {
	if other.head == refNil {
		return
	}
	r := &ls[class]
	if r.head == refNil {
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
func (g *refGenerator) processLeaf(u int32) {
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
func (g *refGenerator) processInternal(u int32) {
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
			g.lsets[v][c] = refList{head: refNil, tail: refNil}
		}
	}
}

// dedupChildren removes all but one occurrence of each sequence across
// the children's lsets, using the 2n boolean array with a mark pass
// and an unmark pass so the array is clean for the next node.
func (g *refGenerator) dedupChildren(kids []int32) {
	for _, v := range kids {
		for c := range g.lsets[v] {
			r := &g.lsets[v][c]
			prev := refNil
			id := r.head
			for id != refNil {
				next := g.cells[id].next
				sid := g.cells[id].suf.Sid
				if g.seen[sid] {
					// Unlink this duplicate.
					if prev == refNil {
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
			for id := g.lsets[v][c].head; id != refNil; id = g.cells[id].next {
				g.seen[g.cells[id].suf.Sid] = false
			}
		}
	}
}

func (g *refGenerator) cross(a, b refList, depth int32) {
	if g.stopped || a.empty() || b.empty() {
		return
	}
	for x := a.head; x != refNil; x = g.cells[x].next {
		for y := b.head; y != refNil; y = g.cells[y].next {
			if !g.emit(g.cells[x].suf, g.cells[y].suf, depth) {
				return
			}
		}
	}
}

func (g *refGenerator) crossSelf(a refList, depth int32) {
	if g.stopped || a.empty() {
		return
	}
	for x := a.head; x != refNil; x = g.cells[x].next {
		for y := g.cells[x].next; y != refNil; y = g.cells[y].next {
			if !g.emit(g.cells[x].suf, g.cells[y].suf, depth) {
				return
			}
		}
	}
}

// emit canonicalizes and delivers one pair; returns false once the
// consumer has stopped.
func (g *refGenerator) emit(a, b suffixtree.Suffix, depth int32) bool {
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
