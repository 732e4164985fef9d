package noc

import "fmt"

// Kind selects the interconnect topology. The paper's evaluation uses the
// 2D mesh (TILE64 STN), and names torus and H-tree as the other common
// scalable-accelerator interconnects (Sec. IV-C); all three are modeled
// so the mapping stage and the topology ablation bench can compare them.
type Kind int

const (
	// KindMesh is the 2D mesh with XY dimension-ordered routing.
	KindMesh Kind = iota
	// KindTorus adds wrap-around links in both dimensions; routing takes
	// the shorter direction per dimension.
	KindTorus
	// KindHTree connects engines as leaves of a balanced 4-ary tree of
	// switches (internal nodes are addressed above the engine range).
	KindHTree
)

// String names the topology.
func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindTorus:
		return "torus"
	case KindHTree:
		return "htree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NewTorus builds a W x H torus. All Mesh methods apply; routes wrap
// around whenever the wrapped direction is shorter.
func NewTorus(w, h, linkBytes int) *Mesh {
	m := NewMesh(w, h, linkBytes)
	m.kind = KindTorus
	return m
}

// NewHTree builds an H-tree (hierarchical 4-ary switch tree) over n
// engines; n is rounded up to a power of four. Engine coordinates keep a
// square layout for zig-zag placement, but distances and routes follow
// the tree.
func NewHTree(n, linkBytes int) *Mesh {
	side := 1
	for side*side < n {
		side *= 2
	}
	m := NewMesh(side, side, linkBytes)
	m.kind = KindHTree
	return m
}

// Kind reports the mesh's topology.
func (m *Mesh) Kind() Kind { return m.kind }

// torusDelta returns the signed per-step move and hop count along one
// dimension of size n from a to b, taking the shorter way around.
func torusDelta(a, b, n int) (step, hops int) {
	fwd := (b - a + n) % n
	bwd := (a - b + n) % n
	if fwd <= bwd {
		return 1, fwd
	}
	return -1, bwd
}

// hopsTorus is the wrap-aware Manhattan distance.
func (m *Mesh) hopsTorus(i, j int) int {
	xi, yi := m.Coord(i)
	xj, yj := m.Coord(j)
	_, hx := torusDelta(xi, xj, m.W)
	_, hy := torusDelta(yi, yj, m.H)
	return hx + hy
}

// appendTorus appends the route from i to j, X-then-Y taking the shorter
// direction per dimension.
func (m *Mesh) appendTorus(dst []Link, i, j int) []Link {
	xi, yi := m.Coord(i)
	xj, yj := m.Coord(j)
	cur := i
	sx, hx := torusDelta(xi, xj, m.W)
	x := xi
	for s := 0; s < hx; s++ {
		x = (x + sx + m.W) % m.W
		ne := m.EngineAt(x, yi)
		dst = append(dst, Link{From: cur, To: ne})
		cur = ne
	}
	sy, hy := torusDelta(yi, yj, m.H)
	y := yi
	for s := 0; s < hy; s++ {
		y = (y + sy + m.H) % m.H
		ne := m.EngineAt(xj, y)
		dst = append(dst, Link{From: cur, To: ne})
		cur = ne
	}
	return dst
}

// H-tree addressing: leaves are engines 0..n-1 (in zig-zag-compatible
// row-major order); internal switch nodes are numbered from n upward,
// level by level toward the root. Each switch has up to four children.

// maxHTreeDepth bounds the switch levels above a leaf: each level
// divides the width by four.
const maxHTreeDepth = 32

// htreeUp appends to up the switch nodes from a leaf to the root.
func (m *Mesh) htreeUp(up []int, leaf int) []int {
	n := m.Engines()
	idx := leaf
	width := n
	base := n
	for width > 1 {
		idx = idx / 4
		width = (width + 3) / 4
		up = append(up, base+idx)
		base += width
		if width == 1 {
			break
		}
	}
	return up
}

// nodes returns the number of node IDs routes use: the engines, plus the
// switches on the H-tree, whose root has the largest ID.
func (m *Mesh) nodes() int {
	if m.kind != KindHTree {
		return m.Engines()
	}
	var buf [maxHTreeDepth]int
	up := m.htreeUp(buf[:0], 0)
	if len(up) == 0 {
		return m.Engines()
	}
	return up[len(up)-1] + 1
}

// htreeLCA returns the switch paths of leaves i and j up to the root and
// the depth of their lowest common switch.
func (m *Mesh) htreeLCA(bi, bj *[maxHTreeDepth]int, i, j int) (ui, uj []int, lca int) {
	ui, uj = m.htreeUp(bi[:0], i), m.htreeUp(bj[:0], j)
	for d := 0; d < len(ui); d++ {
		if ui[d] == uj[d] {
			return ui, uj, d
		}
	}
	return ui, uj, len(ui) - 1
}

// hopsHTree is the tree distance between two leaves.
func (m *Mesh) hopsHTree(i, j int) int {
	if i == j {
		return 0
	}
	var bi, bj [maxHTreeDepth]int
	_, _, lca := m.htreeLCA(&bi, &bj, i, j)
	return 2 * (lca + 1)
}

// appendHTree appends the route from leaf i up to the lowest common
// switch and down to j.
func (m *Mesh) appendHTree(dst []Link, i, j int) []Link {
	if i == j {
		return dst
	}
	var bi, bj [maxHTreeDepth]int
	ui, uj, lca := m.htreeLCA(&bi, &bj, i, j)
	cur := i
	for d := 0; d <= lca; d++ {
		dst = append(dst, Link{From: cur, To: ui[d]})
		cur = ui[d]
	}
	for d := lca - 1; d >= 0; d-- {
		dst = append(dst, Link{From: cur, To: uj[d]})
		cur = uj[d]
	}
	return append(dst, Link{From: cur, To: j})
}
