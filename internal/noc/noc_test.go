package noc

import (
	"testing"
	"testing/quick"
)

// hops reads D(i,j) from the route table's dense hop row of engine i.
func hops(m *Mesh, i, j int) int { return int(m.HopsRow(i)[j]) }

// routeIDs slices the route from i to j out of RoutesFrom(i).
func routeIDs(m *Mesh, i, j int) []int32 {
	off, ids := m.RoutesFrom(i)
	return ids[off[j]:off[j+1]]
}

func TestHopsManhattan(t *testing.T) {
	m := NewMesh(8, 8, 8)
	cases := []struct {
		i, j, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 8, 1},
		{0, 9, 2},
		{0, 63, 14},
		{7, 56, 14},
	}
	for _, c := range cases {
		if got := hops(m, c.i, c.j); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestPathIsXYOrdered(t *testing.T) {
	m := NewMesh(4, 4, 8)
	// From (0,0) to (2,3): X moves first.
	path := m.AppendPath(nil, 0, m.EngineAt(2, 3))
	if len(path) != 5 {
		t.Fatalf("path length = %d, want 5", len(path))
	}
	// First two links travel along y=0.
	for i := 0; i < 2; i++ {
		_, y := m.Coord(path[i].To)
		if y != 0 {
			t.Errorf("link %d ends at row %d, want 0 (XY routing)", i, y)
		}
	}
	// Remaining links travel along x=2.
	for i := 2; i < 5; i++ {
		x, _ := m.Coord(path[i].To)
		if x != 2 {
			t.Errorf("link %d ends at col %d, want 2", i, x)
		}
	}
}

func TestPathContinuity(t *testing.T) {
	m := NewMesh(5, 3, 8)
	f := func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % m.Engines()
		j := int(jRaw) % m.Engines()
		path := m.AppendPath(nil, i, j)
		if len(path) != hops(m, i, j) {
			return false
		}
		cur := i
		for _, l := range path {
			if l.From != cur || hops(m, l.From, l.To) != 1 {
				return false
			}
			cur = l.To
		}
		return i == j || cur == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRouteTableMatchesPath pins the dense route table to a fresh
// AppendPath walk on all three topologies: same links, same order, same hop
// counts, and hop counts equal to the arithmetic reference.
func TestRouteTableMatchesPath(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(4, 3, 8), NewTorus(4, 4, 8), NewHTree(16, 8)} {
		n := m.Engines()
		if m.NumLinks() <= 0 {
			t.Fatalf("%v: NumLinks = %d", m.Kind(), m.NumLinks())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				path := m.AppendPath(nil, i, j)
				ids := routeIDs(m, i, j)
				if len(path) != len(ids) {
					t.Fatalf("%v: route %d->%d: %d ids, %d links", m.Kind(), i, j, len(ids), len(path))
				}
				for k, id := range ids {
					if id < 0 || int(id) >= m.NumLinks() {
						t.Fatalf("%v: link ID %d out of range [0,%d)", m.Kind(), id, m.NumLinks())
					}
					if m.table().linkOf[id] != path[k] {
						t.Fatalf("%v: route %d->%d link %d: ID %d = %v, want %v",
							m.Kind(), i, j, k, id, m.table().linkOf[id], path[k])
					}
				}
				if hops(m, i, j) != len(path) || hops(m, i, j) != m.hopsDirect(i, j) {
					t.Fatalf("%v: Hops(%d,%d) = %d, path %d, direct %d",
						m.Kind(), i, j, hops(m, i, j), len(path), m.hopsDirect(i, j))
				}
			}
		}
	}
}

// TestRoutesPrefixClosed checks the route-tree invariant on every
// topology and size the simulator runs: from each source, every link has
// one predecessor across all routes, checked here against AppendPath directly.
// It also feeds checkPrefixClosed hand-built tables that break the
// invariant (a link reached from two predecessors, a route revisiting a
// link), which must be rejected.
func TestRoutesPrefixClosed(t *testing.T) {
	for _, m := range []*Mesh{
		NewMesh(8, 8, 8), NewMesh(9, 8, 8), NewMesh(4, 3, 8),
		NewTorus(4, 4, 8), NewTorus(5, 6, 8), NewTorus(8, 8, 8),
		NewHTree(16, 8), NewHTree(64, 8),
	} {
		if err := m.table().checkPrefixClosed(); err != nil {
			t.Fatalf("%v %dx%d: %v", m.Kind(), m.W, m.H, err)
		}
		n := m.Engines()
		for i := 0; i < n; i++ {
			pred := map[Link]Link{}
			for j := 0; j < n; j++ {
				prev := Link{From: -1, To: -1}
				for _, l := range m.AppendPath(nil, i, j) {
					if p, ok := pred[l]; ok && p != prev {
						t.Fatalf("%v %dx%d: routes from %d reach %v from %v and %v", m.Kind(), m.W, m.H, i, l, p, prev)
					}
					pred[l] = prev
					prev = l
				}
			}
		}
	}

	// Three engines, links 0 (0->1), 1 (1->2) and 2 (0->2); row 0 holds
	// the routes from engine 0.
	table := func(r01, r02 []int32) *routeTable {
		rt := &routeTable{n: 3, numLinks: 3,
			linkOf: []Link{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}},
			off:    make([]int32, 10)}
		rt.ids = append(append(rt.ids, r01...), r02...)
		rt.off[2], rt.off[3] = int32(len(r01)), int32(len(r01)+len(r02))
		for k := 4; k < len(rt.off); k++ {
			rt.off[k] = rt.off[3]
		}
		return rt
	}
	if err := table([]int32{0}, []int32{0, 1}).checkPrefixClosed(); err != nil {
		t.Errorf("a route tree was rejected: %v", err)
	}
	if err := table([]int32{0}, []int32{2, 1}).checkPrefixClosed(); err != nil {
		t.Errorf("a route tree was rejected: %v", err)
	}
	if err := table([]int32{0, 1}, []int32{2, 1}).checkPrefixClosed(); err == nil {
		t.Error("link 1 reached from links 0 and 2 was accepted")
	}
	if err := table([]int32{0}, []int32{0, 1, 0}).checkPrefixClosed(); err == nil {
		t.Error("a route revisiting link 0 was accepted")
	}
}

// TestRouteTableConcurrentBuild exercises the lazy build from many
// goroutines (parallel sweeps share meshes across sim runs); run with
// -race in CI.
func TestRouteTableConcurrentBuild(t *testing.T) {
	m := NewTorus(4, 4, 8)
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			s := 0
			for i := 0; i < m.Engines(); i++ {
				s += len(routeIDs(m, i, (i*7+3)%m.Engines())) + hops(m, 0, i)
			}
			done <- s
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent route walks disagree: %d vs %d", got, first)
		}
	}
}

// Property: Hops is symmetric and satisfies the triangle inequality.
func TestHopsMetricProperty(t *testing.T) {
	m := NewMesh(8, 8, 8)
	f := func(aRaw, bRaw, cRaw uint8) bool {
		a, b, c := int(aRaw)%64, int(bRaw)%64, int(cRaw)%64
		if hops(m, a, b) != hops(m, b, a) {
			return false
		}
		return hops(m, a, c) <= hops(m, a, b)+hops(m, b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRouteBuildTimeRecorded(t *testing.T) {
	m := NewMesh(4, 4, 8)
	d := m.RouteBuildTime()
	if d <= 0 {
		t.Fatalf("RouteBuildTime = %v, want > 0", d)
	}
	if again := m.RouteBuildTime(); again != d {
		t.Errorf("RouteBuildTime changed across calls: %v then %v", d, again)
	}
}
