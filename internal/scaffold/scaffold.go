// Package scaffold orders and orients contigs along the chromosome
// using clone-mate links — the downstream "scaffolding" stage the
// paper describes closing its assembly pipeline (Section 2: "The order
// and orientation of the contigs along the chromosomes is later
// determined using a process called scaffolding").
//
// A mate pair whose two reads land in different contigs implies a
// relative orientation of those contigs and an approximate gap between
// them (clone length minus the spans covered inside each contig).
// Links between the same oriented contig pair are bundled; bundles
// with enough agreeing links become scaffold edges, and contigs chain
// greedily into scaffolds along their strongest left/right edges.
package scaffold

import (
	"sort"

	"repro/internal/assembly"
)

// Config parameterizes scaffolding.
type Config struct {
	// MinLinks is the number of agreeing mate links required to join
	// two contigs (guards against chimeric clones and repeat-induced
	// misplacements).
	MinLinks int
	// ReadLen approximates the read length when projecting clone
	// spans (mean read length of the library).
	ReadLen int
	// MaxGapSlack rejects bundles whose implied gap is more negative
	// than this (contigs overlapping more than slack should have been
	// merged by assembly, so the link is suspect).
	MaxGapSlack int
}

// DefaultConfig returns typical Sanger-library settings.
func DefaultConfig() Config {
	return Config{MinLinks: 2, ReadLen: 700, MaxGapSlack: 400}
}

// MateLink is one clone whose reads span two contigs: the forward read
// of the pair sits in one contig, the reverse read in another, and the
// clone length bounds their separation.
type MateLink struct {
	ForwardFrag int // fragment ID of the forward-strand read
	ReverseFrag int // fragment ID of the reverse-strand read
	InsertLen   int // approximate clone length
}

// Placement orients one contig within a scaffold.
type Placement struct {
	Contig  int  // index into the input contig slice
	Reverse bool // contig is flipped relative to the scaffold
	Gap     int  // estimated gap to the next contig (last entry: 0)
}

// Scaffold is an ordered, oriented chain of contigs.
type Scaffold struct {
	Contigs []Placement
}

// edge is a bundled set of agreeing mate links between two oriented
// contigs: "A forward-end joins B" with relative orientation flip.
type edge struct {
	a, b  int  // contig indices, a < b
	flip  bool // true if b is reversed relative to a
	count int
	gap   int // median implied gap
}

// Build bundles mate links into edges and chains contigs into
// scaffolds. Contigs with no surviving links come back as singleton
// scaffolds.
func Build(contigs []assembly.Contig, links []MateLink, cfg Config) []Scaffold {
	if cfg.MinLinks == 0 {
		cfg = DefaultConfig()
	}
	// Index fragment placements.
	type loc struct {
		contig int
		off    int
		rev    bool
		ok     bool
	}
	where := make(map[int]loc)
	lengths := make([]int, len(contigs))
	for ci, c := range contigs {
		lengths[ci] = len(c.Bases)
		for _, p := range c.Reads {
			where[p.Frag] = loc{contig: ci, off: p.Offset, rev: p.Reverse, ok: true}
		}
	}

	// Collect per-(pair, orientation) gap samples.
	type key struct {
		a, b int
		flip bool
	}
	samples := make(map[key][]int)
	for _, l := range links {
		f, ok1 := where[l.ForwardFrag]
		r, ok2 := where[l.ReverseFrag]
		if !ok1 || !ok2 || f.contig == r.contig {
			continue
		}
		// The forward read points along the genome; its contig is
		// genome-forward iff the read is placed unreversed. The reverse
		// read points against the genome; its contig is genome-forward
		// iff the read is placed reversed.
		aFwd := !f.rev
		bFwd := r.rev
		// Distance from the forward read's start to the gap-facing end
		// of its contig (in genome orientation), and from the gap-facing
		// end of the mate's contig to the reverse read's end.
		var distA int
		if aFwd {
			distA = lengths[f.contig] - f.off
		} else {
			distA = f.off + cfg.ReadLen
		}
		var distB int
		if bFwd {
			distB = r.off + cfg.ReadLen
		} else {
			distB = lengths[r.contig] - r.off
		}
		gap := l.InsertLen - distA - distB

		a, b := f.contig, r.contig
		flip := aFwd == !bFwd
		if a > b {
			a, b = b, a
		}
		samples[key{a, b, flip}] = append(samples[key{a, b, flip}], gap)
	}

	// Bundle into edges.
	var edges []edge
	for k, gaps := range samples {
		if len(gaps) < cfg.MinLinks {
			continue
		}
		sort.Ints(gaps)
		med := gaps[len(gaps)/2]
		if med < -cfg.MaxGapSlack {
			continue
		}
		edges = append(edges, edge{a: k.a, b: k.b, flip: k.flip, count: len(gaps), gap: med})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].count != edges[j].count {
			return edges[i].count > edges[j].count
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	// Greedy chaining: accept edges strongest-first as long as each
	// contig keeps degree ≤ 2 and no cycle forms.
	parent := make([]int, len(contigs))
	degree := make([]int, len(contigs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	adj := make(map[int][]edge)
	for _, e := range edges {
		if degree[e.a] >= 2 || degree[e.b] >= 2 {
			continue
		}
		if find(e.a) == find(e.b) {
			continue // would close a cycle
		}
		parent[find(e.a)] = find(e.b)
		degree[e.a]++
		degree[e.b]++
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], e)
	}

	// Walk each chain from an endpoint, assigning orientations.
	visited := make([]bool, len(contigs))
	var out []Scaffold
	for start := 0; start < len(contigs); start++ {
		if visited[start] || degree[start] > 1 {
			continue // start only from chain endpoints (or isolated contigs)
		}
		var sc Scaffold
		cur, rev := start, false
		prev := -1
		for {
			visited[cur] = true
			next, nextRev, gap, found := -1, false, 0, false
			for _, e := range adj[cur] {
				other := e.a + e.b - cur
				if other == prev {
					continue
				}
				next = other
				nextRev = rev != e.flip
				gap = e.gap
				found = true
				break
			}
			if found {
				sc.Contigs = append(sc.Contigs, Placement{Contig: cur, Reverse: rev, Gap: gap})
				prev, cur, rev = cur, next, nextRev
				continue
			}
			sc.Contigs = append(sc.Contigs, Placement{Contig: cur, Reverse: rev})
			break
		}
		out = append(out, sc)
	}
	return out
}

// Stats summarizes a scaffolding result.
type Stats struct {
	Scaffolds    int
	Singletons   int
	LargestChain int
	TotalContigs int
}

// Summarize computes scaffold statistics.
func Summarize(scs []Scaffold) Stats {
	var st Stats
	st.Scaffolds = len(scs)
	for _, s := range scs {
		st.TotalContigs += len(s.Contigs)
		if len(s.Contigs) == 1 {
			st.Singletons++
		}
		if len(s.Contigs) > st.LargestChain {
			st.LargestChain = len(s.Contigs)
		}
	}
	return st
}
