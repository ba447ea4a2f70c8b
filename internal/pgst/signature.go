package pgst

import (
	"fmt"
	"sort"

	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// Signature identifies the content of a suffix-tree forest independent
// of node numbering or bucket distribution: a multiset of per-node
// structural signatures plus the sorted multiset of leaf suffixes. Two
// forests carrying the same suffixes in the same shape — regardless of
// how the buckets were split across ranks — compare Equal. The
// simulation harness uses it as the serial-equivalence oracle for the
// distributed GST build.
type Signature struct {
	Nodes    map[string]int
	Suffixes []string
}

// add counts one tree's nodes and leaf suffixes into sig.
func (sig *Signature) add(t *suffixtree.Tree) {
	for i := range t.Nodes {
		u := int32(i)
		k := fmt.Sprintf("d%d/leaf%v/n%d", t.Nodes[u].Depth, t.IsLeaf(u),
			t.Nodes[u].SufEnd-t.Nodes[u].SufStart)
		sig.Nodes[k]++
		if t.IsLeaf(u) {
			for _, sf := range t.LeafSuffixes(u) {
				sig.Suffixes = append(sig.Suffixes,
					fmt.Sprintf("%d:%d:%d:%d", sf.Sid, sf.Pos, sf.Prev, t.Nodes[u].Depth))
			}
		}
	}
}

// TreeSignature summarizes one or more trees as a Signature.
func TreeSignature(trees ...*suffixtree.Tree) Signature {
	sig := Signature{Nodes: make(map[string]int)}
	for _, t := range trees {
		sig.add(t)
	}
	sort.Strings(sig.Suffixes)
	return sig
}

// UnionSignatureOf summarizes the union of the forests a machine's
// locals (indexed by rank) hand out through Forests: each live local's
// own range — a resident tree as it stands, anything else swept segment
// by segment against st, so the oracle itself honors the byte budget —
// and, for each dead rank (a nil entry), its range swept by a live
// local, which is exactly what the rank that adopts it does.
func UnionSignatureOf(st seq.Seqs, locals []*Local) Signature {
	sig := Signature{Nodes: make(map[string]int)}
	add := func(t *suffixtree.Tree, _ float64) bool {
		sig.add(t)
		return true
	}
	var live *Local
	for _, l := range locals {
		if l != nil {
			live = l
			l.Forests(st, l.rank, add)
		}
	}
	for r, l := range locals {
		if l == nil && live != nil {
			live.Forests(st, r, add)
		}
	}
	sort.Strings(sig.Suffixes)
	return sig
}

// Equal reports whether two signatures describe the same forest
// content.
func (s Signature) Equal(o Signature) bool {
	if len(s.Nodes) != len(o.Nodes) || len(s.Suffixes) != len(o.Suffixes) {
		return false
	}
	for k, v := range s.Nodes {
		if o.Nodes[k] != v {
			return false
		}
	}
	for i := range s.Suffixes {
		if s.Suffixes[i] != o.Suffixes[i] {
			return false
		}
	}
	return true
}
