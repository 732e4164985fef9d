package noc

import (
	"testing"
	"testing/quick"
)

func TestTorusWraparound(t *testing.T) {
	m := NewTorus(8, 8, 8)
	// Opposite corners are 2 hops on a torus (one wrap per dimension).
	if got := hops(m, 0, m.EngineAt(7, 7)); got != 2 {
		t.Errorf("corner-to-corner torus hops = %d, want 2", got)
	}
	// Half-way around is the worst case: 8 hops.
	if got := hops(m, 0, m.EngineAt(4, 4)); got != 8 {
		t.Errorf("half-way torus hops = %d, want 8", got)
	}
	// Torus never exceeds mesh distance.
	mesh := NewMesh(8, 8, 8)
	for i := 0; i < 64; i += 7 {
		for j := 0; j < 64; j += 5 {
			if hops(m, i, j) > hops(mesh, i, j) {
				t.Errorf("torus hops(%d,%d)=%d > mesh %d", i, j, hops(m, i, j), hops(mesh, i, j))
			}
		}
	}
}

func TestTorusPathContinuity(t *testing.T) {
	m := NewTorus(5, 3, 8)
	f := func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % m.Engines()
		j := int(jRaw) % m.Engines()
		path := m.AppendPath(nil, i, j)
		if len(path) != hops(m, i, j) {
			return false
		}
		cur := i
		for _, l := range path {
			if l.From != cur {
				return false
			}
			// Each link connects torus-adjacent engines.
			if hops(m, l.From, l.To) != 1 {
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

func TestHTreeDistances(t *testing.T) {
	m := NewHTree(16, 8)
	// Leaves 0..3 share a first-level switch: distance 2.
	if got := hops(m, 0, 3); got != 2 {
		t.Errorf("Hops(0,3) = %d, want 2", got)
	}
	// Leaves in different quads go through the root: distance 4 on a
	// 16-leaf 4-ary tree.
	if got := hops(m, 0, 15); got != 4 {
		t.Errorf("Hops(0,15) = %d, want 4", got)
	}
	if got := hops(m, 5, 5); got != 0 {
		t.Errorf("self distance = %d", got)
	}
}

func TestHTreePathEndsAtDestination(t *testing.T) {
	m := NewHTree(16, 8)
	f := func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % 16
		j := int(jRaw) % 16
		path := m.AppendPath(nil, i, j)
		if i == j {
			return len(path) == 0
		}
		if len(path) != hops(m, i, j) {
			return false
		}
		cur := i
		for _, l := range path {
			if l.From != cur {
				return false
			}
			cur = l.To
		}
		return cur == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHTreeRootContention(t *testing.T) {
	// Cross-quad routes share the root switch links — the H-tree's known
	// bisection bottleneck, on which the simulator serializes their
	// flows. Same-quad routes stay below the root and share nothing.
	m := NewHTree(16, 8)
	const root = 16 + 4 // leaves 0..15, quad switches 16..19, then the root
	shared := func(a, b []int32) []Link {
		var out []Link
		for _, x := range a {
			for _, y := range b {
				if x == y {
					out = append(out, m.table().linkOf[x])
				}
			}
		}
		return out
	}
	if got := shared(routeIDs(m, 0, 1), routeIDs(m, 2, 3)); len(got) != 0 {
		t.Errorf("same-quad routes 0->1 and 2->3 share links %v, want none", got)
	}
	got := shared(routeIDs(m, 0, 15), routeIDs(m, 1, 14))
	if len(got) != 2 {
		t.Fatalf("cross-quad routes 0->15 and 1->14 share links %v, want the two root links", got)
	}
	for _, l := range got {
		if l.From != root && l.To != root {
			t.Errorf("cross-quad routes share non-root link %v", l)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindMesh.String() != "mesh" || KindTorus.String() != "torus" || KindHTree.String() != "htree" {
		t.Error("kind names wrong")
	}
	if NewTorus(2, 2, 8).Kind() != KindTorus {
		t.Error("torus kind not set")
	}
	if NewHTree(7, 8).Kind() != KindHTree {
		t.Error("htree kind not set")
	}
	// n rounded up to a square power of four side.
	if m := NewHTree(7, 8); m.Engines() < 7 {
		t.Errorf("htree engines = %d < requested", m.Engines())
	}
}

// Property: all three topologies produce metric-consistent Hops
// (symmetric, zero iff equal) and AppendPath lengths equal to Hops.
func TestTopologyMetricProperty(t *testing.T) {
	tops := []*Mesh{NewMesh(4, 4, 8), NewTorus(4, 4, 8), NewHTree(16, 8)}
	f := func(iRaw, jRaw, kRaw uint8) bool {
		for _, m := range tops {
			i := int(iRaw) % 16
			j := int(jRaw) % 16
			if hops(m, i, j) != hops(m, j, i) {
				return false
			}
			if (hops(m, i, j) == 0) != (i == j) {
				return false
			}
			if len(m.AppendPath(nil, i, j)) != hops(m, i, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
