// Package unionfind implements the disjoint-set (union–find) data
// structure the paper's master processor uses to maintain the current
// clustering (Section 7): an array of n integers, find with path
// compression and union by rank, giving inverse-Ackermann amortized
// operations.
package unionfind

// UF is a disjoint-set forest over elements 0..n-1.
type UF struct {
	parent []int32
	rank   []int8
	sets   int
}

// New creates n singleton sets.
func New(n int) *UF {
	uf := &UF{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// N returns the number of elements.
func (u *UF) N() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the representative of x's set, compressing the path.
func (u *UF) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
	}
	for int(u.parent[x]) != root {
		x, u.parent[x] = int(u.parent[x]), int32(root)
	}
	return root
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Union merges the sets of x and y and reports whether a merge happened
// (false if they were already together).
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Groups returns the sets as slices of member elements, in ascending
// order of each set's smallest member. Within a group members ascend.
func (u *UF) Groups() [][]int {
	n := len(u.parent)
	idx := make(map[int]int, u.sets)
	var groups [][]int
	for i := 0; i < n; i++ {
		r := u.Find(i)
		g, ok := idx[r]
		if !ok {
			g = len(groups)
			idx[r] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}
