package unionfind

import (
	"math/rand"
	"testing"
)

// naiveModel is the obviously-correct reference: every element maps to
// a partition label, and a merge relabels one side wholesale.
type naiveModel struct {
	label []int
}

func newNaiveModel(n int) *naiveModel {
	m := &naiveModel{label: make([]int, n)}
	for i := range m.label {
		m.label[i] = i
	}
	return m
}

func (m *naiveModel) union(x, y int) bool {
	lx, ly := m.label[x], m.label[y]
	if lx == ly {
		return false
	}
	for i, l := range m.label {
		if l == ly {
			m.label[i] = lx
		}
	}
	return true
}

func (m *naiveModel) sets() int {
	seen := map[int]bool{}
	for _, l := range m.label {
		seen[l] = true
	}
	return len(seen)
}

func (m *naiveModel) size(x int) int {
	n := 0
	for _, l := range m.label {
		if l == m.label[x] {
			n++
		}
	}
	return n
}

// TestUFMatchesNaiveModel drives random merge sequences through the
// union–find and the naive partition-map model in lockstep, comparing
// the full observable state (Same for every pair, Sets, the size of
// each group, N) after every operation batch.
func TestUFMatchesNaiveModel(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(40)
		uf := New(n)
		model := newNaiveModel(n)
		ops := rng.Intn(3 * n)
		for op := 0; op < ops; op++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if got, want := uf.Union(x, y), model.union(x, y); got != want {
				t.Fatalf("trial %d op %d: Union(%d,%d) = %v, model says %v", trial, op, x, y, got, want)
			}
		}
		if uf.N() != n {
			t.Fatalf("trial %d: N = %d, want %d", trial, uf.N(), n)
		}
		if got, want := uf.Sets(), model.sets(); got != want {
			t.Fatalf("trial %d: Sets = %d, model says %d", trial, got, want)
		}
		for _, g := range uf.Groups() {
			for _, x := range g {
				if got, want := len(g), model.size(x); got != want {
					t.Fatalf("trial %d: group of %d has %d members, model says %d", trial, x, got, want)
				}
			}
		}
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if got, want := uf.Same(x, y), model.label[x] == model.label[y]; got != want {
					t.Fatalf("trial %d: Same(%d,%d) = %v, model says %v", trial, x, y, got, want)
				}
			}
		}
	}
}

// TestUFGroupsConsistent: Groups must agree with the element-wise view
// after random merges — every element appears in exactly one group,
// grouped with exactly its Same-mates.
func TestUFGroupsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 64
	uf := New(n)
	for op := 0; op < 100; op++ {
		uf.Union(rng.Intn(n), rng.Intn(n))
	}
	seen := make([]bool, n)
	groups := uf.Groups()
	if len(groups) != uf.Sets() {
		t.Fatalf("%d groups, Sets = %d", len(groups), uf.Sets())
	}
	for _, g := range groups {
		for _, x := range g {
			if seen[x] {
				t.Fatalf("element %d in two groups", x)
			}
			seen[x] = true
			if !uf.Same(g[0], x) {
				t.Fatalf("group mixes sets: %d vs %d", g[0], x)
			}
			mates := 0
			for y := 0; y < n; y++ {
				if uf.Same(x, y) {
					mates++
				}
			}
			if mates != len(g) {
				t.Fatalf("%d is Same as %d elements, its group has %d", x, mates, len(g))
			}
		}
	}
	for x, ok := range seen {
		if !ok {
			t.Fatalf("element %d in no group", x)
		}
	}
	total := 0
	for _, g := range groups {
		if root := uf.Find(g[0]); uf.Find(root) != root {
			t.Fatalf("group of %d has representative %d, which is not a root", g[0], root)
		}
		total += len(g)
	}
	if total != n {
		t.Fatalf("group sizes sum %d, want %d", total, n)
	}
}
