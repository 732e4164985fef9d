package mapping

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// weightAffinityDAG: one conv layer with 4 channel-slice atoms per round
// over two "rounds" (we place round 2's atoms while round 1's weights sit
// on specific engines).
func weightAffinityDAG(t *testing.T) *atom.DAG {
	t.Helper()
	g := graph.New("wa")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 8, Wo: 8, Co: 8})
	c := g.AddLayer("c", graph.OpConv, graph.ConvShape(8, 8, 8, 64, 3, 1, 1), in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	// 2 spatial x 4 channel tiles = 8 atoms; co-slices repeat between
	// the two spatial halves.
	d, err := atom.Build(g, 1, atom.Spec{c: {Hp: 4, Wp: 8, Cop: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWeightAffinityRefinement(t *testing.T) {
	d := weightAffinityDAG(t)
	mesh := noc.NewMesh(2, 2, 32)
	m := New(mesh, d)

	// Find the conv atoms: first 4 share h-range [0,4), second 4 [4,8);
	// slices repeat across the halves.
	var first, second []int
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpConv {
			continue
		}
		if a.Region.H0 == 0 {
			first = append(first, a.ID)
		} else {
			second = append(second, a.ID)
		}
	}
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("unexpected tiling: %d/%d", len(first), len(second))
	}

	// Round 1 placed slices c0=0,16,32,48 on engines 0..3 (by atom order).
	r1 := placeNew(m, first, func(int) int { return -1 }, nil)
	sliceEngine := map[int]int{} // c0 -> engine
	for _, id := range first {
		sliceEngine[d.Atoms[id].Region.C0] = r1.Engine(id)
	}

	// Round 2: weights for slice c0 are cached exactly where round 1 ran
	// that slice.
	weights := func(e, id int) bool {
		return sliceEngine[d.Atoms[id].Region.C0] == e
	}
	r2 := placeNew(m, second, func(int) int { return -1 }, weights)
	// Every atom must land on the engine holding its slice (ifmap costs
	// are zero here, so weight affinity decides).
	for _, id := range second {
		want := sliceEngine[d.Atoms[id].Region.C0]
		if r2.Engine(id) != want {
			t.Errorf("atom %d (c0=%d) on engine %d, want %d (weight holder)",
				id, d.Atoms[id].Region.C0, r2.Engine(id), want)
		}
	}
}

func TestRefinementRespectsIfmapCost(t *testing.T) {
	// When no engine holds weights, the refinement must leave the
	// ifmap-optimal placement intact (all atomCostAt weight terms equal).
	d := weightAffinityDAG(t)
	mesh := noc.NewMesh(2, 2, 32)
	m := New(mesh, d)
	var convs []int
	for _, a := range d.Atoms {
		if a.Task.Kind == graph.OpConv && len(convs) < 4 {
			convs = append(convs, a.ID)
		}
	}
	noWeights := func(int, int) bool { return false }
	base := placeNew(m, convs, func(int) int { return -1 }, nil)
	refined := placeNew(m, convs, func(int) int { return -1 }, noWeights)
	if base.ByteHops != refined.ByteHops {
		t.Errorf("uniform weights changed cost: %d vs %d", base.ByteHops, refined.ByteHops)
	}
}

// TestWeightedByteHopsMatchDependencyWalk checks the ByteHops of refined
// placements, which placementCost reads from the cached cost rows,
// against a walk over every placed atom's dependencies.
func TestWeightedByteHopsMatchDependencyWalk(t *testing.T) {
	d, prev, cur := fig7DAG(t)
	mesh := noc.NewMesh(3, 3, 8)
	m := New(mesh, d)
	r0 := placeNew(m, prev, func(int) int { return -1 }, nil)
	locate := r0.Engine
	round := append(append([]int(nil), cur...), prev...)
	for salt := 0; salt < 6; salt++ {
		// Answers depend on the atom's weight slice only, as the
		// WeightLocator contract requires.
		weights := func(e, id int) bool {
			a := d.Atoms[id]
			return (e*7+a.Layer*5+a.Region.C0+salt)%3 == 0
		}
		res := placeNew(m, round, locate, weights)
		var want int64
		for _, id := range res.Placed() {
			dst := res.Engine(id)
			deps, depBytes := depsOf(d, id)
			for di, dep := range deps {
				if src := locate(dep); src >= 0 && src != dst {
					want += depBytes[di] * int64(mesh.Hops(src, dst))
				}
			}
		}
		if want == 0 {
			t.Fatal("no on-chip dependency bytes; the test exercises nothing")
		}
		if res.ByteHops != want {
			t.Errorf("salt %d: ByteHops = %d, dependency walk = %d", salt, res.ByteHops, want)
		}
	}
}
