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

// TreeSignature summarizes one or more trees as a Signature.
func TreeSignature(trees ...*suffixtree.Tree) Signature {
	sig := Signature{Nodes: make(map[string]int)}
	for _, t := range trees {
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
	sort.Strings(sig.Suffixes)
	return sig
}

// UnionSignatureOf summarizes the union of the given locals' forests
// for either build mode: an in-memory local contributes its resident
// tree, a spilling local materializes its covered key ranges segment
// by segment against st (building and dropping each forest, so the
// oracle itself honors the byte budget). Nil entries — dead ranks —
// are skipped; their ranges appear through the survivor that adopted
// them.
func UnionSignatureOf(st seq.Seqs, locals []*Local) Signature {
	sig := Signature{Nodes: make(map[string]int)}
	add := func(t Signature) {
		for k, v := range t.Nodes {
			sig.Nodes[k] += v
		}
		sig.Suffixes = append(sig.Suffixes, t.Suffixes...)
	}
	for _, l := range locals {
		if l == nil {
			continue
		}
		if l.Spill == nil {
			add(TreeSignature(l.Tree))
			continue
		}
		for _, r := range l.Spill.Ranks {
			l.SweepRank(st, r, func(t *suffixtree.Tree) bool {
				add(TreeSignature(t))
				return true
			})
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
