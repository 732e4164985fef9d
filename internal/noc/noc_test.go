package noc

import (
	"slices"
	"testing"
	"testing/quick"
)

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
		if got := m.Hops(c.i, c.j); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestPathIsXYOrdered(t *testing.T) {
	m := NewMesh(4, 4, 8)
	// From (0,0) to (2,3): X moves first.
	path := m.Path(0, m.EngineAt(2, 3))
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
		path := m.Path(i, j)
		if len(path) != m.Hops(i, j) {
			return false
		}
		cur := i
		for _, l := range path {
			if l.From != cur || m.Hops(l.From, l.To) != 1 {
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

func TestTransferCycles(t *testing.T) {
	m := NewMesh(4, 4, 8)
	if got := m.TransferCycles(0, 0, 1000); got != 0 {
		t.Errorf("self transfer = %d, want 0", got)
	}
	// 3 hops + 1024/8 serialization.
	if got, want := m.TransferCycles(0, 3, 1024), int64(3+128); got != want {
		t.Errorf("TransferCycles = %d, want %d", got, want)
	}
}

func TestTrafficContention(t *testing.T) {
	m := NewMesh(4, 1, 8)
	tr := m.NewTraffic()
	// Two flows share link 0->1: 800 and 800 bytes serialize.
	tr.Add(0, 2, 800)
	tr.Add(0, 3, 800)
	want := int64(1600/8) + 3 // bottleneck link + max hops
	if got := tr.FinishCycles(); got != want {
		t.Errorf("FinishCycles = %d, want %d", got, want)
	}
	if got, want := tr.ByteHops(), int64(800*2+800*3); got != want {
		t.Errorf("ByteHops = %d, want %d", got, want)
	}
	if tr.Flows() != 2 {
		t.Errorf("Flows = %d, want 2", tr.Flows())
	}
}

func TestDisjointFlowsDontContend(t *testing.T) {
	m := NewMesh(4, 4, 8)
	tr := m.NewTraffic()
	// Opposite corners moving to adjacent engines: no shared links.
	tr.Add(0, 1, 640)
	tr.Add(15, 14, 640)
	want := int64(640/8) + 1
	if got := tr.FinishCycles(); got != want {
		t.Errorf("FinishCycles = %d, want %d (no contention)", got, want)
	}
}

func TestEmptyTraffic(t *testing.T) {
	m := NewMesh(2, 2, 8)
	tr := m.NewTraffic()
	tr.Add(1, 1, 4096) // self-flow ignored
	if tr.FinishCycles() != 0 || tr.ByteHops() != 0 || tr.Flows() != 0 {
		t.Error("self-flow should be free")
	}
}

// TestRouteTableMatchesPath pins the dense route table to the allocating
// Path walk on all three topologies: same links, same order, same hop
// counts, and hop counts equal to the arithmetic reference. RoutesFrom
// must slice out the same routes as RouteIDs.
func TestRouteTableMatchesPath(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(4, 3, 8), NewTorus(4, 4, 8), NewHTree(16, 8)} {
		n := m.Engines()
		if m.NumLinks() <= 0 {
			t.Fatalf("%v: NumLinks = %d", m.Kind(), m.NumLinks())
		}
		for i := 0; i < n; i++ {
			off, all := m.RoutesFrom(i)
			for j := 0; j < n; j++ {
				path := m.Path(i, j)
				ids := m.RouteIDs(i, j)
				if !slices.Equal(all[off[j]:off[j+1]], ids) {
					t.Fatalf("%v: RoutesFrom(%d) route to %d = %v, RouteIDs %v", m.Kind(), i, j, all[off[j]:off[j+1]], ids)
				}
				if len(path) != len(ids) {
					t.Fatalf("%v: route %d->%d: %d ids, %d links", m.Kind(), i, j, len(ids), len(path))
				}
				for k, id := range ids {
					if id < 0 || int(id) >= m.NumLinks() {
						t.Fatalf("%v: link ID %d out of range [0,%d)", m.Kind(), id, m.NumLinks())
					}
					if m.LinkByID(id) != path[k] {
						t.Fatalf("%v: route %d->%d link %d: ID %d = %v, want %v",
							m.Kind(), i, j, k, id, m.LinkByID(id), path[k])
					}
				}
				if m.Hops(i, j) != len(path) || m.Hops(i, j) != m.hopsDirect(i, j) {
					t.Fatalf("%v: Hops(%d,%d) = %d, path %d, direct %d",
						m.Kind(), i, j, m.Hops(i, j), len(path), m.hopsDirect(i, j))
				}
			}
		}
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
				s += len(m.RouteIDs(i, (i*7+3)%m.Engines())) + m.Hops(0, i)
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

// TestTrafficReset pins Reset to a fully cleared accumulator.
func TestTrafficReset(t *testing.T) {
	m := NewMesh(4, 1, 8)
	tr := m.NewTraffic()
	tr.Add(0, 3, 800)
	tr.Reset()
	if tr.FinishCycles() != 0 || tr.ByteHops() != 0 || tr.Flows() != 0 {
		t.Error("Reset left residual traffic state")
	}
	tr.Add(0, 2, 800)
	fresh := m.NewTraffic()
	fresh.Add(0, 2, 800)
	if tr.FinishCycles() != fresh.FinishCycles() || tr.ByteHops() != fresh.ByteHops() {
		t.Error("reused accumulator differs from a fresh one")
	}
}

// Property: Hops is symmetric and satisfies the triangle inequality.
func TestHopsMetricProperty(t *testing.T) {
	m := NewMesh(8, 8, 8)
	f := func(aRaw, bRaw, cRaw uint8) bool {
		a, b, c := int(aRaw)%64, int(bRaw)%64, int(cRaw)%64
		if m.Hops(a, b) != m.Hops(b, a) {
			return false
		}
		return m.Hops(a, c) <= m.Hops(a, b)+m.Hops(b, c)
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
