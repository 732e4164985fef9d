package noc

import (
	"fmt"
	"slices"
	"testing"
)

// refBuildTable is the route table built the direct way: one AppendPath
// walk into a fresh slice per pair and a map from each link to its ID, numbered on
// first traversal. H-tree routes come from refPathHTree, which keeps
// every switch list it walks.
func refBuildTable(m *Mesh) *routeTable {
	n := m.Engines()
	rt := &routeTable{n: n, hops: make([]int32, n*n), off: make([]int32, n*n+1)}
	idOf := make(map[Link]int32)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			path := m.AppendPath(nil, i, j)
			if m.kind == KindHTree {
				path = refPathHTree(m, i, j)
			}
			rt.hops[i*n+j] = int32(len(path))
			for _, l := range path {
				id, ok := idOf[l]
				if !ok {
					id = int32(len(rt.linkOf))
					idOf[l] = id
					rt.linkOf = append(rt.linkOf, l)
				}
				rt.ids = append(rt.ids, id)
			}
			rt.off[i*n+j+1] = int32(len(rt.ids))
		}
	}
	rt.numLinks = len(rt.linkOf)
	return rt
}

// refPathHTree routes leaf i up to the lowest common switch and down to
// j, listing each leaf's switches to the root first.
func refPathHTree(m *Mesh, i, j int) []Link {
	if i == j {
		return nil
	}
	upOf := func(leaf int) []int {
		var up []int
		for idx, width, base := leaf, m.Engines(), m.Engines(); width > 1; {
			idx, width = idx/4, (width+3)/4
			up = append(up, base+idx)
			base += width
		}
		return up
	}
	ui, uj := upOf(i), upOf(j)
	lca := len(ui) - 1
	for d := range ui {
		if ui[d] == uj[d] {
			lca = d
			break
		}
	}
	var path []Link
	cur := i
	for d := 0; d <= lca; d++ {
		path = append(path, Link{From: cur, To: ui[d]})
		cur = ui[d]
	}
	for d := lca - 1; d >= 0; d-- {
		path = append(path, Link{From: cur, To: uj[d]})
		cur = uj[d]
	}
	return append(path, Link{From: cur, To: j})
}

// TestBuildTableMatchesReference checks that the map-free table build
// yields the reference's link numbering, hop counts, route offsets and
// route link IDs on meshes of 1x1, 2x3 and 8x8, an 8x8 torus and a
// 64-engine H-tree.
func TestBuildTableMatchesReference(t *testing.T) {
	for _, m := range []*Mesh{
		NewMesh(1, 1, 8), NewMesh(2, 3, 8), NewMesh(8, 8, 8),
		NewTorus(8, 8, 8), NewHTree(64, 8),
	} {
		name := fmt.Sprintf("%v %dx%d", m.Kind(), m.W, m.H)
		got, want := m.table(), refBuildTable(m)
		if got.n != want.n || got.numLinks != want.numLinks {
			t.Errorf("%s: %d engines, %d links; reference %d, %d", name, got.n, got.numLinks, want.n, want.numLinks)
		}
		if !slices.Equal(got.linkOf, want.linkOf) {
			t.Errorf("%s: link numbering differs from the reference", name)
		}
		if !slices.Equal(got.hops, want.hops) {
			t.Errorf("%s: hop counts differ from the reference", name)
		}
		if !slices.Equal(got.off, want.off) {
			t.Errorf("%s: route offsets differ from the reference", name)
		}
		if !slices.Equal(got.ids, want.ids) {
			t.Errorf("%s: route link IDs differ from the reference", name)
		}
	}
}

// TestBuildTableAllocs bounds the allocations of an 8x8 mesh's table
// build: every array is allocated once, at its final size, so the count
// does not grow with the mesh.
func TestBuildTableAllocs(t *testing.T) {
	const maxAllocs = 10
	m := NewMesh(8, 8, 8)
	allocs := testing.AllocsPerRun(5, m.buildTable)
	t.Logf("%.0f allocations per 8x8 table build", allocs)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per 8x8 table build, want at most %d", allocs, maxAllocs)
	}
}
