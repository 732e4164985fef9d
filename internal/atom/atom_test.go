package atom

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

func buildDAG(t *testing.T, g *graph.Graph, batch int, spec Spec) *DAG {
	t.Helper()
	d, err := Build(g, batch, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestWholeLayerSingleAtom(t *testing.T) {
	g := models.TinyConv()
	d := buildDAG(t, g, 1, nil)
	// One atom per non-concat layer.
	want := 0
	for _, l := range g.Layers {
		if l.Kind != graph.OpConcat {
			want++
		}
	}
	if d.NumAtoms() != want {
		t.Errorf("NumAtoms = %d, want %d", d.NumAtoms(), want)
	}
}

func TestTileCounts(t *testing.T) {
	g := models.TinyConv() // conv1: 32x32x16
	conv1 := g.Layer(1)
	spec := Spec{conv1.ID: {Hp: 16, Wp: 16, Cop: 8}}
	d := buildDAG(t, g, 1, spec)
	atoms := d.AtomsOf(0, conv1.ID)
	if len(atoms) != 2*2*2 {
		t.Errorf("conv1 atoms = %d, want 8", len(atoms))
	}
	// Regions must exactly cover the output tensor without overlap.
	var covered int64
	for _, id := range atoms {
		covered += d.Atoms[id].OutputBytes()
	}
	if covered != conv1.OutputBytes() {
		t.Errorf("atom regions cover %d bytes, want %d", covered, conv1.OutputBytes())
	}
}

func TestRaggedTiling(t *testing.T) {
	g := models.TinyConv()
	conv1 := g.Layer(1) // 32x32x16
	spec := Spec{conv1.ID: {Hp: 10, Wp: 32, Cop: 16}}
	d := buildDAG(t, g, 1, spec)
	atoms := d.AtomsOf(0, conv1.ID)
	if len(atoms) != 4 {
		t.Fatalf("atoms = %d, want 4 (32 = 10+10+10+2)", len(atoms))
	}
	last := d.Atoms[atoms[3]]
	if got := last.Region.H1 - last.Region.H0; got != 2 {
		t.Errorf("last tile height = %d, want 2", got)
	}
	if last.Task.Hp != 2 {
		t.Errorf("last tile Task.Hp = %d, want 2", last.Task.Hp)
	}
}

func TestConvReceptiveFieldDeps(t *testing.T) {
	// Two stacked 3x3 convs, both split in half along H: the lower half
	// of conv2 needs both halves of conv1 (1-pixel halo crosses the cut).
	g := graph.New("halo")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 8, Wo: 8, Co: 4})
	c1 := g.AddLayer("c1", graph.OpConv, graph.ConvShape(8, 8, 4, 4, 3, 1, 1), in)
	c2 := g.AddLayer("c2", graph.OpConv, graph.ConvShape(8, 8, 4, 4, 3, 1, 1), c1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		c1: {Hp: 4, Wp: 8, Cop: 4},
		c2: {Hp: 4, Wp: 8, Cop: 4},
	}
	d := buildDAG(t, g, 1, spec)
	c1Atoms := d.AtomsOf(0, c1)
	c2Atoms := d.AtomsOf(0, c2)
	if len(c1Atoms) != 2 || len(c2Atoms) != 2 {
		t.Fatalf("atom counts = %d, %d; want 2, 2", len(c1Atoms), len(c2Atoms))
	}
	// c2 top tile covers output rows [0,4); it reads input rows [0,5)
	// which spans c1 tile [0,4) and tile [4,8).
	top := d.Atoms[c2Atoms[0]]
	if len(top.Deps) != 2 {
		t.Errorf("c2 top tile deps = %v, want both c1 tiles", top.Deps)
	}
}

func TestStridedConvDeps(t *testing.T) {
	// Stride-2 conv: output tile [0,2) needs input rows [0,5) with k=3,
	// i.e. only the first input tile when input split at 8.
	g := graph.New("stride")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 16, Wo: 16, Co: 4})
	c1 := g.AddLayer("c1", graph.OpConv, graph.ConvShape(16, 16, 4, 4, 3, 1, 1), in)
	c2 := g.AddLayer("c2", graph.OpConv, graph.ConvShape(16, 16, 4, 4, 3, 2, 1), c1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		c1: {Hp: 8, Wp: 16, Cop: 4},
		c2: {Hp: 2, Wp: 8, Cop: 4}, // c2 output is 8x8
	}
	d := buildDAG(t, g, 1, spec)
	top := d.Atoms[d.AtomsOf(0, c2)[0]]
	// Output rows [0,2), stride 2, pad 1, k 3 -> input rows [0, 4): only
	// c1's first H-tile.
	if len(top.Deps) != 1 {
		t.Errorf("strided top tile deps = %d, want 1", len(top.Deps))
	}
}

func TestConcatElision(t *testing.T) {
	g := models.TinyBranch()
	d := buildDAG(t, g, 1, nil)
	// No atom may belong to a concat layer.
	for _, a := range d.Atoms {
		if g.Layer(a.Layer).Kind == graph.OpConcat {
			t.Fatalf("atom %v belongs to a concat layer", a)
		}
	}
	// The global pool (consumer of the concat) must depend on all three
	// branch outputs.
	var gpID int
	for _, l := range g.Layers {
		if l.Kind == graph.OpGlobalPool {
			gpID = l.ID
		}
	}
	gp := d.Atoms[d.AtomsOf(0, gpID)[0]]
	branchLayers := make(map[int]bool)
	for _, dep := range gp.Deps {
		branchLayers[d.Atoms[dep].Layer] = true
	}
	if len(branchLayers) != 3 {
		t.Errorf("global pool depends on %d branch layers, want 3", len(branchLayers))
	}
}

func TestConcatChannelRouting(t *testing.T) {
	// conv reading only the second producer's channels through a concat
	// must depend only on that producer.
	g := graph.New("ccr")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 4, Wo: 4, Co: 4})
	a := g.AddLayer("a", graph.OpConv, graph.ConvShape(4, 4, 4, 8, 1, 1, 0), in)
	b := g.AddLayer("b", graph.OpConv, graph.ConvShape(4, 4, 4, 8, 1, 1, 0), in)
	cat := g.AddLayer("cat", graph.OpConcat, graph.Shape{Hi: 4, Wi: 4, Ci: 16, Ho: 4, Wo: 4, Co: 16, Kh: 1, Kw: 1, Stride: 1}, a, b)
	// Depthwise conv partitioned along channels: tiles map 1:1 to input
	// channels, so the second-half tile touches only producer b.
	dw := g.AddLayer("dw", graph.OpDepthwiseConv, graph.ConvShape(4, 4, 16, 16, 3, 1, 1), cat)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := Spec{dw: {Hp: 4, Wp: 4, Cop: 8}}
	d := buildDAG(t, g, 1, spec)
	atoms := d.AtomsOf(0, dw)
	if len(atoms) != 2 {
		t.Fatalf("dw atoms = %d, want 2", len(atoms))
	}
	second := d.Atoms[atoms[1]]
	if len(second.Deps) != 1 || d.Atoms[second.Deps[0]].Layer != b {
		t.Errorf("second dw tile deps = %v, want only layer b", second.Deps)
	}
}

func TestBatchReplication(t *testing.T) {
	g := models.TinyResNet()
	d1 := buildDAG(t, g, 1, nil)
	d3 := buildDAG(t, g, 3, nil)
	if d3.NumAtoms() != 3*d1.NumAtoms() {
		t.Errorf("batch 3 atoms = %d, want %d", d3.NumAtoms(), 3*d1.NumAtoms())
	}
	// No edges may cross samples.
	for _, a := range d3.Atoms {
		for _, dep := range a.Deps {
			if d3.Atoms[dep].Sample != a.Sample {
				t.Fatalf("cross-sample edge %v -> %v", d3.Atoms[dep], a)
			}
		}
	}
}

func TestDepsAreAcyclicAndOrdered(t *testing.T) {
	for _, name := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell"} {
		g := models.MustBuild(name)
		spec := make(Spec)
		for _, lid := range g.ComputeLayers() {
			l := g.Layer(lid)
			spec[lid] = Partition{
				Hp: max(1, l.Shape.Ho/2), Wp: max(1, l.Shape.Wo/2),
				Cop: max(1, l.Shape.Co/2),
			}
		}
		d := buildDAG(t, g, 2, spec)
		for _, a := range d.Atoms {
			for _, dep := range a.Deps {
				if dep >= a.ID {
					t.Fatalf("%s: dep %d not before atom %d", name, dep, a.ID)
				}
			}
		}
	}
}

func TestConsumersInverseOfDeps(t *testing.T) {
	g := models.TinyBranch()
	d := buildDAG(t, g, 1, nil)
	for _, a := range d.Atoms {
		for _, dep := range a.Deps {
			found := false
			for _, c := range d.Consumers(dep) {
				if c == a.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("consumers(%d) missing %d", dep, a.ID)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := models.TinyConv()
	if _, err := Build(g, 0, nil); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := Build(g, 1, Spec{1: {Hp: 0, Wp: 1, Cop: 1}}); err == nil {
		t.Error("zero partition accepted")
	}
}

func TestValidateOnZooDAGs(t *testing.T) {
	for _, name := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell"} {
		g := models.MustBuild(name)
		spec := make(Spec)
		for _, lid := range g.ComputeLayers() {
			l := g.Layer(lid)
			spec[lid] = Partition{Hp: max(1, l.Shape.Ho/3), Wp: max(1, l.Shape.Wo/2), Cop: max(1, l.Shape.Co/2)}
		}
		d := buildDAG(t, g, 2, spec)
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: for any partition of a conv chain, every atom's region is
// non-empty, within bounds, and regions of one layer tile it exactly.
func TestPartitionCoverageProperty(t *testing.T) {
	g := models.TinyConv()
	conv2 := g.Layer(2) // 32x32x16
	f := func(hpRaw, wpRaw, cpRaw uint8) bool {
		spec := Spec{conv2.ID: {
			Hp: int(hpRaw%32) + 1, Wp: int(wpRaw%32) + 1, Cop: int(cpRaw%16) + 1,
		}}
		d, err := Build(g, 1, spec)
		if err != nil {
			return false
		}
		var covered int64
		for _, id := range d.AtomsOf(0, conv2.ID) {
			r := d.Atoms[id].Region
			if r.empty() || r.H1 > 32 || r.W1 > 32 || r.C1 > 16 {
				return false
			}
			covered += r.Bytes()
		}
		return covered == conv2.OutputBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refDAG is the construction Build replaced, kept as the executable
// reference for replication: every sample is tiled and wired from
// scratch, with a fresh producer-position map per atom.
type refDAG struct {
	atoms     []*Atom
	consumers [][]int
	grids     []map[int]grid // per sample: layerID -> grid
}

func buildReference(g *graph.Graph, batch int, spec Spec) (*refDAG, error) {
	d := &refDAG{grids: make([]map[int]grid, batch)}
	for s := 0; s < batch; s++ {
		d.grids[s] = make(map[int]grid)
		for _, lid := range g.Topo() {
			l := g.Layer(lid)
			if l.Kind == graph.OpConcat {
				continue
			}
			part, ok := spec[lid]
			if !ok {
				part = WholeLayer(l)
			}
			if err := part.Validate(l); err != nil {
				return nil, err
			}
			d.addLayerAtoms(g, s, l, part)
		}
	}
	d.consumers = make([][]int, len(d.atoms))
	for _, a := range d.atoms {
		for _, dep := range a.Deps {
			d.consumers[dep] = append(d.consumers[dep], a.ID)
		}
	}
	return d, nil
}

func (d *refDAG) addLayerAtoms(g *graph.Graph, sample int, l *graph.Layer, part Partition) {
	s := l.Shape
	nH, nW, nC := ceilDiv(s.Ho, part.Hp), ceilDiv(s.Wo, part.Wp), ceilDiv(s.Co, part.Cop)
	d.grids[sample][l.ID] = grid{part: part, nH: nH, nW: nW, nC: nC, base: len(d.atoms)}
	idx := 0
	for ih := 0; ih < nH; ih++ {
		for iw := 0; iw < nW; iw++ {
			for ic := 0; ic < nC; ic++ {
				r := Region{
					H0: ih * part.Hp, H1: min((ih+1)*part.Hp, s.Ho),
					W0: iw * part.Wp, W1: min((iw+1)*part.Wp, s.Wo),
					C0: ic * part.Cop, C1: min((ic+1)*part.Cop, s.Co),
				}
				a := &Atom{ID: len(d.atoms), Layer: l.ID, Sample: sample, Index: idx,
					Region: r, Task: taskFor(l, r)}
				a.Deps, a.DepBytes = d.depsFor(g, sample, l, r)
				d.atoms = append(d.atoms, a)
				idx++
			}
		}
	}
}

func (d *refDAG) depsFor(g *graph.Graph, sample int, l *graph.Layer, r Region) ([]int, []int64) {
	var deps []int
	var bytes []int64
	pos := make(map[int]int)
	for _, ref := range inputRegions(g, l, r) {
		gr := d.grids[sample][ref.layer]
		rr, p := ref.region, gr.part
		for ih := rr.H0 / p.Hp; ih <= (rr.H1-1)/p.Hp && ih < gr.nH; ih++ {
			for iw := rr.W0 / p.Wp; iw <= (rr.W1-1)/p.Wp && iw < gr.nW; iw++ {
				for ic := rr.C0 / p.Cop; ic <= (rr.C1-1)/p.Cop && ic < gr.nC; ic++ {
					id := gr.base + (ih*gr.nW+iw)*gr.nC + ic
					overlap := overlapBytes(d.atoms[id].Region, rr)
					if i, ok := pos[id]; ok {
						bytes[i] += overlap
					} else {
						pos[id] = len(deps)
						deps = append(deps, id)
						bytes = append(bytes, overlap)
					}
				}
			}
		}
	}
	for i, id := range deps {
		if lim := d.atoms[id].OutputBytes(); bytes[i] > lim {
			bytes[i] = lim
		}
	}
	return deps, bytes
}

func (d *refDAG) atomsOf(sample, layerID int) []int {
	g, ok := d.grids[sample][layerID]
	if !ok {
		return nil
	}
	ids := make([]int, g.nH*g.nW*g.nC)
	for i := range ids {
		ids[i] = g.base + i
	}
	return ids
}

// equalDAG reports the first field where the replicated DAG departs from
// the per-sample reference.
func equalDAG(g *graph.Graph, batch int, got *DAG, want *refDAG) error {
	if len(got.Atoms) != len(want.atoms) {
		return fmt.Errorf("%d atoms, reference has %d", len(got.Atoms), len(want.atoms))
	}
	for i, w := range want.atoms {
		a := got.Atoms[i]
		switch {
		case a.ID != w.ID || a.Layer != w.Layer || a.Sample != w.Sample || a.Index != w.Index:
			return fmt.Errorf("atom %d: identity %v, reference %v", i, a, w)
		case a.Region != w.Region:
			return fmt.Errorf("atom %d: region %+v, reference %+v", i, a.Region, w.Region)
		case a.Task != w.Task:
			return fmt.Errorf("atom %d: task %+v, reference %+v", i, a.Task, w.Task)
		case !slices.Equal(a.Deps, w.Deps):
			return fmt.Errorf("atom %d: deps %v, reference %v", i, a.Deps, w.Deps)
		case !slices.Equal(a.DepBytes, w.DepBytes):
			return fmt.Errorf("atom %d: dep bytes %v, reference %v", i, a.DepBytes, w.DepBytes)
		case !slices.Equal(got.Consumers(i), want.consumers[i]):
			return fmt.Errorf("atom %d: consumers %v, reference %v", i, got.Consumers(i), want.consumers[i])
		}
	}
	for s := 0; s < batch; s++ {
		for _, l := range g.Layers {
			if a, w := got.AtomsOf(s, l.ID), want.atomsOf(s, l.ID); !slices.Equal(a, w) {
				return fmt.Errorf("AtomsOf(%d, %d) = %v, reference %v", s, l.ID, a, w)
			}
		}
	}
	return nil
}

// TestReplicationMatchesReference checks Build's replicate-once
// construction against the per-sample reference on every zoo model,
// field for field, at batch 1, 2 and 3 under a non-trivial spec.
func TestReplicationMatchesReference(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		spec := make(Spec)
		for _, lid := range g.ComputeLayers() {
			l := g.Layer(lid)
			spec[lid] = Partition{Hp: max(1, l.Shape.Ho/3), Wp: max(1, l.Shape.Wo/2), Cop: max(1, l.Shape.Co/2)}
		}
		for batch := 1; batch <= 3; batch++ {
			d := buildDAG(t, g, batch, spec)
			ref, err := buildReference(g, batch, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := equalDAG(g, batch, d, ref); err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
			// Replicas share sample 0's edge weights.
			n := d.NumAtoms() / batch
			for id := n; id < d.NumAtoms(); id++ {
				a, a0 := d.Atoms[id], d.Atoms[id%n]
				if len(a.DepBytes) > 0 && &a.DepBytes[0] != &a0.DepBytes[0] {
					t.Fatalf("%s batch %d: atom %d does not share DepBytes with atom %d", name, batch, id, id%n)
				}
			}
		}
	}
}
