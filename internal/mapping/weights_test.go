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

	// Find the conv atoms: the first 4 (in ID order) share h-range
	// [0,4), the second 4 [4,8); slices repeat across the halves.
	var first, second []int
	for id, a := range d.Atoms {
		switch {
		case a.Task.Kind != graph.OpConv:
		case len(first) < 4:
			first = append(first, id)
		default:
			second = append(second, id)
		}
	}
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("unexpected tiling: %d/%d", len(first), len(second))
	}

	// Round 1 placed the four slices on engines 0..3 (by atom order).
	r1 := placeNew(m, first, func(int) int { return -1 }, nil)
	sliceEngine := map[int]int{} // slice -> engine
	for _, id := range first {
		sliceEngine[d.WeightSlice(id)] = r1.Engine(id)
	}
	if len(sliceEngine) != 4 {
		t.Fatalf("first half reads %d slices, want 4", len(sliceEngine))
	}

	// Round 2: each slice is cached exactly where round 1 ran it.
	weights := func(e, w int) bool { return sliceEngine[w] == e }
	r2 := placeNew(m, second, func(int) int { return -1 }, weights)
	// Every atom must land on the engine holding its slice (ifmap costs
	// are zero here, so weight affinity decides).
	for _, id := range second {
		want := sliceEngine[d.WeightSlice(id)]
		if r2.Engine(id) != want {
			t.Errorf("atom %d (slice %d) on engine %d, want %d (weight holder)",
				id, d.WeightSlice(id), r2.Engine(id), want)
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
	for id, a := range d.Atoms {
		if a.Task.Kind == graph.OpConv && len(convs) < 4 {
			convs = append(convs, id)
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
	// The Round below places prev's atoms again, which rewrites their
	// entries of the Mapper's table, so locate reads a copy of Round 0's.
	r0 := placeNew(m, prev, func(int) int { return -1 }, nil)
	held := make(map[int]int, len(prev))
	for _, id := range prev {
		held[id] = r0.Engine(id)
	}
	locate := func(id int) int {
		if e, ok := held[id]; ok {
			return e
		}
		return -1
	}
	round := append(append([]int(nil), cur...), prev...)
	for salt := 0; salt < 6; salt++ {
		weights := func(e, w int) bool { return (e*7+w*5+salt)%3 == 0 }
		res := placeNew(m, round, locate, weights)
		var want int64
		for _, id := range res.placed {
			dst := res.Engine(id)
			deps, depBytes := depsOf(d, id)
			for di, dep := range deps {
				if src := locate(dep); src >= 0 && src != dst {
					want += depBytes[di] * int64(mesh.HopsRow(src)[dst])
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
