package atom

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
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

// atomsOf lists the atom IDs of one (sample, layer).
func atomsOf(d *DAG, sample, layerID int) []int {
	var ids []int
	lo, hi := d.AtomRange(sample, layerID)
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

// depsOf expands atom id's producers and edge bytes.
func depsOf(d *DAG, id int) ([]int, []int64) {
	ids, bytes, off := d.Deps(id)
	deps := make([]int, len(ids))
	for i, p := range ids {
		deps[i] = int(p + off)
	}
	return deps, slices.Clone(bytes)
}

// region returns atom id's output region, read off its layer's grid.
func (d *DAG) region(id int) region {
	_, id0 := d.block(id)
	a := &d.Atoms[id]
	gr, s := d.grids[a.Layer], d.Graph.Layer(a.Layer).Shape
	p, i := gr.part, id0-gr.base
	ih, iw, ic := i/(gr.nW*gr.nC), i/gr.nC%gr.nW, i%gr.nC
	return region{
		H0: ih * p.Hp, H1: min((ih+1)*p.Hp, s.Ho),
		W0: iw * p.Wp, W1: min((iw+1)*p.Wp, s.Wo),
		C0: ic * p.Cop, C1: min((ic+1)*p.Cop, s.Co),
	}
}

func (r region) bytes() int64 {
	return int64(r.H1-r.H0) * int64(r.W1-r.W0) * int64(r.C1-r.C0)
}

// TestAtomSize pins the atom's footprint: DAG.Atoms holds one per atom
// of every sample.
func TestAtomSize(t *testing.T) {
	if got := unsafe.Sizeof(Atom{}); got != 80 {
		t.Errorf("unsafe.Sizeof(Atom{}) = %d, want 80", got)
	}
}

// consumersOf expands the atoms of atom id's consumer rows.
func consumersOf(d *DAG, id int) []int {
	var cons []int
	rows, off := d.ConsumerRows(id)
	for _, r := range rows {
		lo, hi := d.RowAtoms(int(r + off))
		for c := lo; c < hi; c++ {
			cons = append(cons, c)
		}
	}
	return cons
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
	atoms := atomsOf(d, 0, conv1.ID)
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
	atoms := atomsOf(d, 0, conv1.ID)
	if len(atoms) != 4 {
		t.Fatalf("atoms = %d, want 4 (32 = 10+10+10+2)", len(atoms))
	}
	if r := d.region(atoms[3]); r.H1-r.H0 != 2 {
		t.Errorf("last tile height = %d, want 2", r.H1-r.H0)
	}
	if last := d.Atoms[atoms[3]]; last.Task.Hp != 2 {
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
	c1Atoms := atomsOf(d, 0, c1)
	c2Atoms := atomsOf(d, 0, c2)
	if len(c1Atoms) != 2 || len(c2Atoms) != 2 {
		t.Fatalf("atom counts = %d, %d; want 2, 2", len(c1Atoms), len(c2Atoms))
	}
	// c2 top tile covers output rows [0,4); it reads input rows [0,5)
	// which spans c1 tile [0,4) and tile [4,8).
	if top, _ := depsOf(d, c2Atoms[0]); len(top) != 2 {
		t.Errorf("c2 top tile deps = %v, want both c1 tiles", top)
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
	top, _ := depsOf(d, atomsOf(d, 0, c2)[0])
	// Output rows [0,2), stride 2, pad 1, k 3 -> input rows [0, 4): only
	// c1's first H-tile.
	if len(top) != 1 {
		t.Errorf("strided top tile deps = %d, want 1", len(top))
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
	gp, _ := depsOf(d, atomsOf(d, 0, gpID)[0])
	branchLayers := make(map[int]bool)
	for _, dep := range gp {
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
	atoms := atomsOf(d, 0, dw)
	if len(atoms) != 2 {
		t.Fatalf("dw atoms = %d, want 2", len(atoms))
	}
	second, _ := depsOf(d, atoms[1])
	if len(second) != 1 || d.Atoms[second[0]].Layer != b {
		t.Errorf("second dw tile deps = %v, want only layer b", second)
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
	for id, a := range d3.Atoms {
		deps, _ := depsOf(d3, id)
		for _, dep := range deps {
			if d3.Atoms[dep].Sample != a.Sample {
				t.Fatalf("cross-sample edge %v -> %v", &d3.Atoms[dep], &a)
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
		for id := range d.Atoms {
			deps, _ := depsOf(d, id)
			for _, dep := range deps {
				if dep >= id {
					t.Fatalf("%s: dep %d not before atom %d", name, dep, id)
				}
			}
		}
	}
}

func TestConsumersInverseOfDeps(t *testing.T) {
	g := models.TinyBranch()
	d := buildDAG(t, g, 1, nil)
	for id := range d.Atoms {
		deps, _ := depsOf(d, id)
		for _, dep := range deps {
			if !slices.Contains(consumersOf(d, dep), id) {
				t.Fatalf("consumers(%d) missing %d", dep, id)
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
		for _, id := range atomsOf(d, 0, conv2.ID) {
			r := d.region(id)
			if r.empty() || r.H1 > 32 || r.W1 > 32 || r.C1 > 16 {
				return false
			}
			covered += r.bytes()
		}
		return covered == conv2.OutputBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refDAG is the construction Build replaced, kept as the executable
// reference: every sample is tiled and wired from scratch, atom by atom,
// with a fresh producer-position map per atom.
type refDAG struct {
	atoms     []refAtom
	consumers [][]int
	grids     []map[int]grid // per sample: layerID -> grid
}

// refAtom is an atom with its own region and dependency list.
type refAtom struct {
	Atom
	region region
	deps   []int
	bytes  []int64
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
	for id, a := range d.atoms {
		for _, dep := range a.deps {
			d.consumers[dep] = append(d.consumers[dep], id)
		}
	}
	return d, nil
}

func (d *refDAG) addLayerAtoms(g *graph.Graph, sample int, l *graph.Layer, part Partition) {
	s := l.Shape
	nH, nW, nC := ceilDiv(s.Ho, part.Hp), ceilDiv(s.Wo, part.Wp), ceilDiv(s.Co, part.Cop)
	d.grids[sample][l.ID] = grid{part: part, nH: nH, nW: nW, nC: nC, base: len(d.atoms)}
	for ih := 0; ih < nH; ih++ {
		for iw := 0; iw < nW; iw++ {
			for ic := 0; ic < nC; ic++ {
				r := region{
					H0: ih * part.Hp, H1: min((ih+1)*part.Hp, s.Ho),
					W0: iw * part.Wp, W1: min((iw+1)*part.Wp, s.Wo),
					C0: ic * part.Cop, C1: min((ic+1)*part.Cop, s.Co),
				}
				a := refAtom{Atom: Atom{Layer: l.ID, Sample: sample,
					Task: engine.TileTask(l, r.H1-r.H0, r.W1-r.W0, r.C1-r.C0)}, region: r}
				a.deps, a.bytes = d.depsFor(g, sample, l, r)
				d.atoms = append(d.atoms, a)
			}
		}
	}
}

func (d *refDAG) depsFor(g *graph.Graph, sample int, l *graph.Layer, r region) ([]int, []int64) {
	var deps []int
	var bytes []int64
	pos := make(map[int]int)
	for _, ref := range appendInputRegions(nil, g, l, r) {
		gr := d.grids[sample][ref.layer]
		rr, p := ref.region, gr.part
		for ih := rr.H0 / p.Hp; ih <= (rr.H1-1)/p.Hp && ih < gr.nH; ih++ {
			for iw := rr.W0 / p.Wp; iw <= (rr.W1-1)/p.Wp && iw < gr.nW; iw++ {
				for ic := rr.C0 / p.Cop; ic <= (rr.C1-1)/p.Cop && ic < gr.nC; ic++ {
					id := gr.base + (ih*gr.nW+iw)*gr.nC + ic
					overlap := overlapBytes(d.atoms[id].region, rr)
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

// overlapBytes returns the intersection volume of two regions.
func overlapBytes(a, b region) int64 {
	h := int64(min(a.H1, b.H1) - max(a.H0, b.H0))
	w := int64(min(a.W1, b.W1) - max(a.W0, b.W0))
	c := int64(min(a.C1, b.C1) - max(a.C0, b.C0))
	if h <= 0 || w <= 0 || c <= 0 {
		return 0
	}
	return h * w * c
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

// equalDAG reports the first field where the row-shared DAG, expanded
// through its accessors, departs from the per-sample reference, or where
// a row breaks the row invariant: all its atoms belong to one layer and
// sample and have the same expanded deps.
func equalDAG(g *graph.Graph, batch int, got *DAG, want *refDAG) error {
	if len(got.Atoms) != len(want.atoms) {
		return fmt.Errorf("%d atoms, reference has %d", len(got.Atoms), len(want.atoms))
	}
	for i, w := range want.atoms {
		a := &got.Atoms[i]
		deps, bytes := depsOf(got, i)
		switch {
		case a.Layer != w.Layer || a.Sample != w.Sample:
			return fmt.Errorf("atom %d: identity %+v, reference %+v", i, *a, w.Atom)
		case got.region(i) != w.region:
			return fmt.Errorf("atom %d: region %+v, reference %+v", i, got.region(i), w.region)
		case a.Task != w.Task:
			return fmt.Errorf("atom %d: task %+v, reference %+v", i, a.Task, w.Task)
		case !slices.Equal(deps, w.deps):
			return fmt.Errorf("atom %d: deps %v, reference %v", i, deps, w.deps)
		case !slices.Equal(bytes, w.bytes):
			return fmt.Errorf("atom %d: dep bytes %v, reference %v", i, bytes, w.bytes)
		case !slices.Equal(consumersOf(got, i), want.consumers[i]):
			return fmt.Errorf("atom %d: consumers %v, reference %v", i, consumersOf(got, i), want.consumers[i])
		}
	}
	next := 0 // rows tile the atom IDs in order
	for r := 0; r < got.NumRows(); r++ {
		lo, hi := got.RowAtoms(r)
		if lo != next || hi <= lo {
			return fmt.Errorf("row %d spans atoms [%d, %d), want a non-empty range from %d", r, lo, hi, next)
		}
		next = hi
		first := want.atoms[lo]
		for id := lo; id < hi; id++ {
			a := want.atoms[id]
			switch {
			case a.Layer != first.Layer || a.Sample != first.Sample:
				return fmt.Errorf("row %d: atom %d of layer %d sample %d, atom %d of layer %d sample %d",
					r, lo, first.Layer, first.Sample, id, a.Layer, a.Sample)
			case !slices.Equal(a.deps, first.deps) || !slices.Equal(a.bytes, first.bytes):
				return fmt.Errorf("row %d: atom %d deps %v, atom %d deps %v", r, id, a.deps, lo, first.deps)
			}
		}
	}
	if next != len(got.Atoms) {
		return fmt.Errorf("rows cover %d of %d atoms", next, len(got.Atoms))
	}
	for s := 0; s < batch; s++ {
		for _, l := range g.Layers {
			if a, w := atomsOf(got, s, l.ID), want.atomsOf(s, l.ID); !slices.Equal(a, w) {
				return fmt.Errorf("AtomRange(%d, %d) = %v, reference %v", s, l.ID, a, w)
			}
		}
	}
	if err := equalSlices(got, want); err != nil {
		return err
	}
	return got.Validate()
}

// equalSlices checks the DAG's weight slice ids against the reference
// regions: an atom reads a slice exactly when its task carries weights,
// atoms of one (layer, C0) read one slice in every sample, so each
// replica reads its sample-0 twin's slice, and the ids ascend densely in
// (layer ID, C0) order, one per output-channel tile of each weighted
// layer.
func equalSlices(got *DAG, want *refDAG) error {
	type key struct{ layer, c0 int }
	ids := map[key]int{}
	for i, w := range want.atoms {
		id := got.WeightSlice(i)
		if (id >= 0) != (w.Task.WeightBytes() > 0) {
			return fmt.Errorf("atom %d (layer %d, %v): weight slice %d", i, w.Layer, w.Task.Kind, id)
		}
		if id < 0 {
			continue
		}
		k := key{w.Layer, w.region.C0}
		if prev, ok := ids[k]; ok && prev != id {
			return fmt.Errorf("atom %d (sample %d): slice %d, but layer %d C0 %d is slice %d in an earlier atom",
				i, w.Sample, id, k.layer, k.c0, prev)
		}
		ids[k] = id
	}
	keys := make([]key, 0, len(ids))
	for k := range ids {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.layer, b.layer), cmp.Compare(a.c0, b.c0))
	})
	for i, k := range keys {
		if ids[k] != i {
			return fmt.Errorf("layer %d C0 %d: slice %d, want %d in (layer, C0) order", k.layer, k.c0, ids[k], i)
		}
	}
	nslices := 0
	for lid, gr := range want.grids[0] {
		if l := got.Graph.Layer(lid); engine.TaskFromLayer(l).WeightBytes() > 0 {
			nslices += gr.nC
		}
	}
	if got.NumWeightSlices() != nslices || len(keys) != nslices {
		return fmt.Errorf("NumWeightSlices = %d for %d slices in use, want %d (Σ nC over weighted layers)",
			got.NumWeightSlices(), len(keys), nslices)
	}
	return nil
}

// TestReplicationMatchesReference checks Build's row-shared, replicate-
// once construction against the per-sample reference on every zoo model,
// field for field through the accessors, at batch 1, 2 and 3 under a
// non-trivial spec. The default-knob SA specs are compared in
// TestSASpecMatchesReference.
func TestReplicationMatchesReference(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		spec := fixedSpec(g)
		for batch := 1; batch <= 3; batch++ {
			d := buildDAG(t, g, batch, spec)
			ref, err := buildReference(g, batch, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := equalDAG(g, batch, d, ref); err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
		}
	}
}

// fixedSpec cuts every compute layer in thirds along H and in halves
// along W and Co.
func fixedSpec(g *graph.Graph) Spec {
	spec := make(Spec)
	for _, lid := range g.ComputeLayers() {
		l := g.Layer(lid)
		spec[lid] = Partition{Hp: max(1, l.Shape.Ho/3), Wp: max(1, l.Shape.Wo/2), Cop: max(1, l.Shape.Co/2)}
	}
	return spec
}

// dagCounts is the work one DAG holds, over the whole batch: edges count
// one per (atom, producer), row edges one per (row, producer).
type dagCounts struct {
	Atoms        int `json:"atoms"`
	Edges        int `json:"edges"`
	Rows         int `json:"rows"`
	RowEdges     int `json:"row_edges"`
	WeightSlices int `json:"weight_slices"`
}

func countDAG(d *DAG) dagCounts {
	c := dagCounts{Atoms: d.NumAtoms(), Rows: d.NumRows(), WeightSlices: d.NumWeightSlices()}
	for id := range d.Atoms {
		ids, _, _ := d.Deps(id)
		c.Edges += len(ids)
	}
	for r := 0; r < d.NumRows(); r++ {
		lo, _ := d.RowAtoms(r)
		ids, _, _ := d.Deps(lo)
		c.RowEdges += len(ids)
	}
	return c
}

var updateCounts = flag.Bool("update", false, "rewrite testdata/dag_counts.json from this tree")

const countsPath = "../../testdata/dag_counts.json"

// TestDAGCounts pins the atoms, edges, rows, row edges and weight slices of every zoo
// model at batch 1 under fixedSpec, and of resnet50 at batch 8. Any
// count above its pin fails: the DAG grew. A count below its pin fails
// too, as a stale pin; re-pin with
//
//	go test ./internal/atom -run TestDAGCounts -update
func TestDAGCounts(t *testing.T) {
	got := map[string]dagCounts{}
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		got[name+"/b1"] = countDAG(buildDAG(t, g, 1, fixedSpec(g)))
	}
	g := models.MustBuild("resnet50")
	got["resnet50/b8"] = countDAG(buildDAG(t, g, 8, fixedSpec(g)))
	if *updateCounts {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(countsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pin map[string]dagCounts
	if err := json.Unmarshal(b, &pin); err != nil {
		t.Fatal(err)
	}
	for key, c := range got {
		p, ok := pin[key]
		if !ok {
			t.Errorf("%s: no pin (re-pin with -update)", key)
			continue
		}
		for _, f := range []struct {
			name      string
			got, want int
		}{{"atoms", c.Atoms, p.Atoms}, {"edges", c.Edges, p.Edges}, {"rows", c.Rows, p.Rows}, {"row_edges", c.RowEdges, p.RowEdges},
			{"weight_slices", c.WeightSlices, p.WeightSlices}} {
			switch {
			case f.got > f.want:
				t.Errorf("%s: %s rose from %d to %d", key, f.name, f.want, f.got)
			case f.got < f.want:
				t.Errorf("%s: %s fell from %d to %d: stale pin, re-pin with -update", key, f.name, f.want, f.got)
			}
		}
	}
	for key := range pin {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer measured (re-pin with -update)", key)
		}
	}
}

// TestValidateCatchesCorruption breaks one invariant at a time in a copy
// of the row tables and checks Validate names it; with two layers broken
// it must name the topologically first, every time.
func TestValidateCatchesCorruption(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	fresh := func() *DAG {
		d := buildDAG(t, g, 2, fixedSpec(g))
		d.depIDs, d.depBytes = slices.Clone(d.depIDs), slices.Clone(d.depBytes)
		d.consRows, d.rowStart = slices.Clone(d.consRows), slices.Clone(d.rowStart)
		return d
	}
	// The last row with deps, and its first producer.
	d0 := fresh()
	r := d0.rows - 1
	for d0.depOff[r] == d0.depOff[r+1] {
		r--
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(d *DAG)
	}{
		{"forward dep", "forward dep", func(d *DAG) { d.depIDs[d.depOff[r]] = int32(d.n - 1) }},
		{"zero bytes", "carries 0 bytes", func(d *DAG) { d.depBytes[d.depOff[r]] = 0 }},
		{"consumer index", "consumer rows", func(d *DAG) {
			p := d.depIDs[d.depOff[r]]
			d.consRows[d.consOff[p]]++
		}},
		{"offsets", "not monotone", func(d *DAG) { d.rowStart[1] = d.rowStart[0] }},
	} {
		d := fresh()
		tc.corrupt(d)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// Shrink one atom of two layers each: the first in Topo order is named.
	d := fresh()
	var broken []int
	for _, lid := range g.Topo() {
		if lo, hi := d.AtomRange(1, lid); hi > lo && len(broken) < 2 {
			d.Atoms[lo].Task.Hp = 0
			broken = append(broken, lid)
		}
	}
	want := fmt.Sprintf("layer %d sample 1", broken[0])
	for i := 0; i < 20; i++ {
		if err := d.Validate(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("Validate = %v, want the error of %q", err, want)
		}
	}
}

// TestBuildConcurrent builds DAGs of different sizes from several
// goroutines at once, all drawing on the pooled build scratch, and checks
// each equals the DAG the same build yields alone.
func TestBuildConcurrent(t *testing.T) {
	names := []string{"tinyresnet", "inceptionv3", "pnascell", "mobilenetv2"}
	alone := make([]*DAG, len(names))
	for i, name := range names {
		g := models.MustBuild(name)
		alone[i] = buildDAG(t, g, 2, fixedSpec(g))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(names))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range names {
				i := (k + w) % len(names)
				g := models.MustBuild(names[i])
				d, err := Build(g, 2, fixedSpec(g))
				if err != nil {
					errs <- err
					continue
				}
				a := alone[i]
				if !slices.Equal(d.Atoms, a.Atoms) || !slices.Equal(d.rowStart, a.rowStart) ||
					!slices.Equal(d.depOff, a.depOff) || !slices.Equal(d.depIDs, a.depIDs) ||
					!slices.Equal(d.depBytes, a.depBytes) || !slices.Equal(d.consRows, a.consRows) ||
					!slices.Equal(d.wslice, a.wslice) {
					errs <- fmt.Errorf("%s: concurrent build differs from the build alone", names[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCountDepsBoundsEdges checks Build's count pass: it is at least the
// dep entries Build appends and sizes their lists, and it equals them on
// every zoo model under fixedSpec and whole-layer atoms. An eltwise layer
// reading one tensor twice reaches each producer tile twice but lists it
// once, so there the count is strictly above.
func TestCountDepsBoundsEdges(t *testing.T) {
	check := func(name string, g *graph.Graph, spec Spec) (count, n int) {
		d := buildDAG(t, g, 1, spec)
		count, n = CountDeps(d), len(d.depIDs)
		if count < n || cap(d.depIDs) != count || cap(d.depBytes) != count {
			t.Errorf("%s: count pass %d, %d dep entries in capacity %d/%d", name, count, n, cap(d.depIDs), cap(d.depBytes))
		}
		return count, n
	}
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, sp := range []struct {
			name string
			spec Spec
		}{{"fixed", fixedSpec(g)}, {"whole", nil}} {
			if count, n := check(name+"/"+sp.name, g, sp.spec); count != n {
				t.Errorf("%s/%s: count pass %d, want the %d entries appended", name, sp.name, count, n)
			}
		}
	}
	g := graph.New("double")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 4, Wo: 4, Co: 8})
	a := g.AddLayer("a", graph.OpConv, graph.ConvShape(4, 4, 8, 8, 1, 1, 0), in)
	sq := g.AddLayer("sq", graph.OpEltwise, graph.Shape{Hi: 4, Wi: 4, Ci: 8, Ho: 4, Wo: 4, Co: 8, Kh: 1, Kw: 1, Stride: 1}, a, a)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := Spec{a: {Hp: 2, Wp: 2, Cop: 8}, sq: {Hp: 2, Wp: 4, Cop: 8}}
	if count, n := check("double", g, spec); count <= n {
		t.Errorf("double: count pass %d, want above the %d entries appended", count, n)
	}
}
