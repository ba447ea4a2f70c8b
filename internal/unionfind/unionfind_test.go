package unionfind

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.N() != 5 || u.Sets() != 5 {
		t.Fatalf("N=%d Sets=%d", u.N(), u.Sets())
	}
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Errorf("Find(%d) = %d", i, u.Find(i))
		}
	}
}

func TestUnionMergesAndCounts(t *testing.T) {
	u := New(4)
	if !u.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union must not merge")
	}
	if u.Sets() != 3 {
		t.Fatalf("Sets = %d", u.Sets())
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Fatal("Same wrong")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Sets() != 1 || !u.Same(1, 2) {
		t.Fatal("transitive merge failed")
	}
}

func TestGroupsOrderAndContent(t *testing.T) {
	u := New(6)
	u.Union(4, 2)
	u.Union(1, 5)
	groups := u.Groups()
	want := [][]int{{0}, {1, 5}, {2, 4}, {3}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("groups = %v, want %v", groups, want)
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Fatalf("groups = %v, want %v", groups, want)
			}
		}
	}
}

// groupOf returns the group of groups that holds x, nil if none does.
func groupOf(groups [][]int, x int) []int {
	for _, g := range groups {
		if slices.Contains(g, x) {
			return g
		}
	}
	return nil
}

func TestSetSizes(t *testing.T) {
	u := New(5)
	u.Union(0, 1)
	u.Union(1, 2)
	groups := u.Groups()
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groupOf(groups, 0)) != 3 || len(groupOf(groups, 3)) != 1 || len(groupOf(groups, 4)) != 1 {
		t.Fatalf("groups = %v", groups)
	}
}

// TestOrderIndependence verifies the transitive-closure property the
// paper's heuristic relies on (Section 4): the final clustering is the
// same regardless of the order pairs are processed in.
func TestOrderIndependence(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(42))
	var pairs [][2]int
	for k := 0; k < 100; k++ {
		pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	canon := func(perm []int) []int {
		u := New(n)
		for _, pi := range perm {
			u.Union(pairs[pi][0], pairs[pi][1])
		}
		out := make([]int, n)
		// Canonical labels: smallest member of each set.
		smallest := make(map[int]int)
		for i := 0; i < n; i++ {
			r := u.Find(i)
			if _, ok := smallest[r]; !ok {
				smallest[r] = i
			}
			out[i] = smallest[r]
		}
		return out
	}
	base := canon(rng.Perm(len(pairs)))
	for trial := 0; trial < 10; trial++ {
		got := canon(rng.Perm(len(pairs)))
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("clustering depends on pair order at element %d", i)
			}
		}
	}
}

func TestSizeTracking(t *testing.T) {
	u := New(6)
	if len(groupOf(u.Groups(), 0)) != 1 {
		t.Fatal("singleton size != 1")
	}
	u.Union(0, 1)
	u.Union(2, 3)
	u.Union(0, 3)
	groups := u.Groups()
	if len(groupOf(groups, 1)) != 4 || len(groupOf(groups, 2)) != 4 {
		t.Errorf("merged size = %d, want 4", len(groupOf(groups, 1)))
	}
	if len(groupOf(groups, 4)) != 1 {
		t.Error("untouched element size changed")
	}
}

// TestQuickModel checks union–find against a naive label model under
// random operation sequences (property-based).
func TestQuickModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		u := New(n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		relabel := func(from, to int) {
			for i := range labels {
				if labels[i] == from {
					labels[i] = to
				}
			}
		}
		for op := 0; op < 120; op++ {
			x, y := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				merged := u.Union(x, y)
				if merged != (labels[x] != labels[y]) {
					t.Fatalf("Union(%d,%d) merged=%v disagrees with model", x, y, merged)
				}
				relabel(labels[y], labels[x])
			case 1:
				if u.Same(x, y) != (labels[x] == labels[y]) {
					t.Fatalf("Same(%d,%d) disagrees with model", x, y)
				}
			default:
				want := 0
				for i := range labels {
					if labels[i] == labels[x] {
						want++
					}
				}
				if got := len(groupOf(u.Groups(), x)); got != want {
					t.Fatalf("group of %d has %d members, model says %d", x, got, want)
				}
			}
		}
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		if u.Sets() != len(distinct) {
			t.Fatalf("Sets()=%d, model says %d", u.Sets(), len(distinct))
		}
	}
}

func TestLargeChainFindDepth(t *testing.T) {
	const n = 100000
	u := New(n)
	for i := 1; i < n; i++ {
		u.Union(i-1, i)
	}
	if u.Sets() != 1 {
		t.Fatalf("Sets = %d", u.Sets())
	}
	r := u.Find(0)
	for i := 0; i < n; i += 997 {
		if u.Find(i) != r {
			t.Fatal("chain not fully merged")
		}
	}
}
