// Package atom implements the paper's central abstraction: the atomic DAG
// (Sec. III). Each DNN layer is partitioned into atoms — sub-tiles of its
// output tensor sized [h_p, w_p, c_p^o] — and atom-level data-dependency
// edges are derived by back-projecting each atom's receptive field onto
// its producer layers' tilings. A batch of B inferences is represented as
// B replicated sub-DAGs inside one unified DAG, enabling batch-level
// parallelism (paper Fig. 6, parallelism type 4).
//
// Concat layers are elided during DAG construction: concatenation along
// channels is pure addressing on-chip, so consumers of a concat resolve
// their input channel ranges directly to the concat's producers.
package atom

import (
	"fmt"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// Partition describes how one layer's output tensor is tiled into atoms.
type Partition struct {
	Hp, Wp, Cop int // tile extents along Ho, Wo, Co
}

// Tiles returns the atom count the partition induces on the layer.
func (p Partition) Tiles(l *graph.Layer) int {
	s := l.Shape
	return ceilDiv(s.Ho, p.Hp) * ceilDiv(s.Wo, p.Wp) * ceilDiv(s.Co, p.Cop)
}

// Validate checks the partition against the layer's shape.
func (p Partition) Validate(l *graph.Layer) error {
	if p.Hp <= 0 || p.Wp <= 0 || p.Cop <= 0 {
		return fmt.Errorf("atom: layer %s: non-positive partition %+v", l.Name, p)
	}
	return nil
}

// WholeLayer returns the trivial partition producing exactly one atom.
func WholeLayer(l *graph.Layer) Partition {
	s := l.Shape
	return Partition{Hp: s.Ho, Wp: s.Wo, Cop: s.Co}
}

// Spec maps layer IDs to partitions. Layers without an entry get a single
// atom (WholeLayer). Concat and Input layers never need entries.
type Spec map[int]Partition

// Region is a half-open sub-box of a layer's output tensor.
type Region struct {
	H0, H1 int // [H0, H1) along Ho
	W0, W1 int
	C0, C1 int // along Co
}

// Bytes returns the INT8 footprint of the region.
func (r Region) Bytes() int64 {
	return int64(r.H1-r.H0) * int64(r.W1-r.W0) * int64(r.C1-r.C0)
}

func (r Region) empty() bool { return r.H1 <= r.H0 || r.W1 <= r.W0 || r.C1 <= r.C0 }

// Atom is one vertex of the atomic DAG: the Region of one layer's output
// for one batch sample, plus the engine.Task that prices its execution.
type Atom struct {
	ID     int
	Layer  int // layer ID in the source graph
	Sample int // batch index
	Index  int // tile index within (Layer, Sample), row-major (h, w, c)
	Region Region
	Task   engine.Task

	// Deps lists producer atom IDs; DepBytes[i] is the byte volume of the
	// overlap between Deps[i]'s output region and this atom's receptive
	// field — the actual tensor traffic of the edge. Atoms of input layers
	// have no deps (their data is in DRAM).
	//
	// Both are read-only once Build returns: an atom of sample s > 0
	// shares its DepBytes slice with the same atom of sample 0.
	Deps     []int
	DepBytes []int64
}

// OutputBytes returns the atom's produced tensor bytes.
func (a *Atom) OutputBytes() int64 { return a.Region.Bytes() }

// String implements fmt.Stringer with the paper's "layer-index" notation.
func (a *Atom) String() string {
	return fmt.Sprintf("atom{L%d-%d s%d [%d:%d,%d:%d,%d:%d]}",
		a.Layer, a.Index, a.Sample,
		a.Region.H0, a.Region.H1, a.Region.W0, a.Region.W1, a.Region.C0, a.Region.C1)
}

// grid records the regular tiling of one layer in sample 0 so that
// region→atom lookups are O(overlap) instead of O(atoms).
type grid struct {
	part       Partition
	nH, nW, nC int
	base       int // first atom ID of this grid in sample 0
}

// DAG is the atomic computation graph.
type DAG struct {
	Graph *graph.Graph
	Batch int
	Atoms []*Atom

	consumers [][]int
	grids     map[int]grid // layerID -> sample-0 grid (concat/elided layers absent)
	perSample int          // atoms per sample: sample s holds IDs [s·perSample, (s+1)·perSample)
}

// NumAtoms returns the vertex count.
func (d *DAG) NumAtoms() int { return len(d.Atoms) }

// Consumers returns the atom IDs that consume atom id's output.
// The returned slice must not be modified.
func (d *DAG) Consumers(id int) []int { return d.consumers[id] }

// AtomsOf returns the atom IDs of one (layer, sample), or nil if the layer
// is elided (concat) or the sample is out of range.
func (d *DAG) AtomsOf(sample, layerID int) []int {
	g, ok := d.grids[layerID]
	if !ok || sample < 0 || sample >= d.Batch {
		return nil
	}
	base := g.base + sample*d.perSample
	ids := make([]int, g.nH*g.nW*g.nC)
	for i := range ids {
		ids[i] = base + i
	}
	return ids
}

// Validate checks the DAG's structural invariants: dependency edges point
// strictly backward (acyclicity by construction order), every edge has a
// positive byte weight no larger than the producer's output, and each
// (layer, sample) grid exactly tiles its output tensor.
func (d *DAG) Validate() error {
	for _, a := range d.Atoms {
		if len(a.Deps) != len(a.DepBytes) {
			return fmt.Errorf("atom %d: %d deps but %d weights", a.ID, len(a.Deps), len(a.DepBytes))
		}
		for i, dep := range a.Deps {
			if dep >= a.ID {
				return fmt.Errorf("atom %d: forward dep %d", a.ID, dep)
			}
			if a.DepBytes[i] <= 0 || a.DepBytes[i] > d.Atoms[dep].OutputBytes() {
				return fmt.Errorf("atom %d: dep %d carries %d bytes (producer has %d)",
					a.ID, dep, a.DepBytes[i], d.Atoms[dep].OutputBytes())
			}
		}
	}
	for s := 0; s < d.Batch; s++ {
		for lid, gr := range d.grids {
			l := d.Graph.Layer(lid)
			var covered int64
			base := gr.base + s*d.perSample
			for i := 0; i < gr.nH*gr.nW*gr.nC; i++ {
				covered += d.Atoms[base+i].Region.Bytes()
			}
			if covered != l.OutputBytes() {
				return fmt.Errorf("layer %d sample %d: atoms cover %d of %d bytes",
					lid, s, covered, l.OutputBytes())
			}
		}
	}
	return nil
}

// Build constructs the atomic DAG for the workload graph under the given
// per-layer partition spec and batch size.
//
// Only sample 0 is tiled and wired. No edge crosses samples, so sample s
// is sample 0 with every atom ID and dependency offset by s·perSample;
// the replicas are stamped out in one block each and share sample 0's
// DepBytes.
func Build(g *graph.Graph, batch int, spec Spec) (*DAG, error) {
	if batch < 1 {
		return nil, fmt.Errorf("atom: batch %d < 1", batch)
	}
	d := &DAG{Graph: g, Batch: batch, grids: make(map[int]grid)}
	for _, lid := range g.Topo() {
		l := g.Layer(lid)
		if l.Kind == graph.OpConcat {
			continue // elided: pure channel addressing
		}
		part, ok := spec[lid]
		if !ok {
			part = WholeLayer(l)
		}
		if err := part.Validate(l); err != nil {
			return nil, err
		}
		s := l.Shape
		gr := grid{part: part, nH: ceilDiv(s.Ho, part.Hp), nW: ceilDiv(s.Wo, part.Wp),
			nC: ceilDiv(s.Co, part.Cop), base: d.perSample}
		d.grids[lid] = gr
		d.perSample += gr.nH * gr.nW * gr.nC
	}
	d.Atoms = make([]*Atom, d.perSample*batch)
	d.consumers = make([][]int, d.perSample*batch)
	edges := d.buildSample0()
	for s := 1; s < batch; s++ {
		d.replicate(s, edges)
	}
	return d, nil
}

// buildSample0 tiles and wires every layer of sample 0, fills its
// consumer lists and returns its edge count.
func (d *DAG) buildSample0() int {
	n := d.perSample
	blk := make([]Atom, n)
	sc := depScratch{stamp: make([]int, n), pos: make([]int, n)}
	// One layer's edges at a time, atom by atom, in reused scratch
	// (deps[ends[i-1]:ends[i]] are its i-th atom's); the layer's atoms
	// then carve theirs out of one exact-size block.
	var deps, ends []int
	var bytes []int64
	edges := 0
	for _, lid := range d.Graph.Topo() {
		gr, ok := d.grids[lid]
		if !ok {
			continue
		}
		l := d.Graph.Layer(lid)
		s, part := l.Shape, gr.part
		deps, bytes, ends = deps[:0], bytes[:0], ends[:0]
		id := gr.base
		for ih := 0; ih < gr.nH; ih++ {
			for iw := 0; iw < gr.nW; iw++ {
				for ic := 0; ic < gr.nC; ic++ {
					r := Region{
						H0: ih * part.Hp, H1: min((ih+1)*part.Hp, s.Ho),
						W0: iw * part.Wp, W1: min((iw+1)*part.Wp, s.Wo),
						C0: ic * part.Cop, C1: min((ic+1)*part.Cop, s.Co),
					}
					blk[id] = Atom{ID: id, Layer: lid, Index: id - gr.base, Region: r, Task: taskFor(l, r)}
					d.Atoms[id] = &blk[id]
					deps, bytes = d.appendDeps(&sc, id, deps, bytes, l, r)
					ends = append(ends, len(deps))
					id++
				}
			}
		}
		layerDeps, layerBytes := slices.Clone(deps), slices.Clone(bytes)
		lo := 0
		for i, hi := range ends {
			if lo < hi {
				a := &blk[gr.base+i]
				a.Deps, a.DepBytes = layerDeps[lo:hi:hi], layerBytes[lo:hi:hi]
			}
			lo = hi
		}
		edges += len(deps)
	}
	// Carve the consumer lists out of one block; a producer's consumers
	// come out in ascending ID order.
	fill := make([]int, n)
	for i := range blk {
		for _, dep := range blk[i].Deps {
			fill[dep]++
		}
	}
	cons := make([]int, edges)
	at := 0
	for id, c := range fill {
		if c > 0 {
			d.consumers[id] = cons[at : at : at+c]
		}
		at += c
	}
	for id := range blk {
		for _, dep := range blk[id].Deps {
			d.consumers[dep] = append(d.consumers[dep], id)
		}
	}
	return edges
}

// replicate stamps out sample s from sample 0, whose edges number edges:
// one Atom block, one block each for the offset deps and consumers.
// DepBytes are shared with sample 0.
func (d *DAG) replicate(s, edges int) {
	n, off := d.perSample, s*d.perSample
	blk := make([]Atom, n)
	deps := make([]int, 0, edges)
	cons := make([]int, 0, edges)
	for i, src := range d.Atoms[:n] {
		a := &blk[i]
		*a = *src
		a.ID += off
		a.Sample = s
		if len(src.Deps) > 0 {
			lo := len(deps)
			for _, dep := range src.Deps {
				deps = append(deps, dep+off)
			}
			a.Deps = deps[lo:len(deps):len(deps)]
		}
		d.Atoms[off+i] = a
		if c := d.consumers[i]; len(c) > 0 {
			lo := len(cons)
			for _, id := range c {
				cons = append(cons, id+off)
			}
			d.consumers[off+i] = cons[lo:len(cons):len(cons)]
		}
	}
}

// taskFor builds the engine.Task pricing an atom covering region r of l.
func taskFor(l *graph.Layer, r Region) engine.Task {
	s := l.Shape
	t := engine.Task{
		Kind: l.Kind,
		Hp:   r.H1 - r.H0, Wp: r.W1 - r.W0,
		Ci: s.Ci, Cop: r.C1 - r.C0,
		Kh: s.Kh, Kw: s.Kw, Stride: s.Stride,
	}
	if l.Kind == graph.OpDepthwiseConv {
		t.Ci = 1
	}
	return t
}

// depScratch maps producer atom IDs to their index in the edge list being
// assembled. An entry is live only while stamp[id] equals the current
// consumer's ID+1, so no per-atom reset is needed.
type depScratch struct {
	stamp []int
	pos   []int
}

// appendDeps appends to deps/bytes the sample-0 producer atoms whose
// outputs overlap the input receptive field of region r of layer l,
// together with the per-edge overlap volume in bytes. id is the
// consuming atom.
func (d *DAG) appendDeps(sc *depScratch, id int, deps []int, bytes []int64, l *graph.Layer, r Region) ([]int, []int64) {
	lo, epoch := len(deps), id+1
	for _, ref := range inputRegions(d.Graph, l, r) {
		d.collectOverlaps(ref, func(p int, overlap int64) {
			if sc.stamp[p] == epoch {
				bytes[sc.pos[p]] += overlap
				return
			}
			sc.stamp[p], sc.pos[p] = epoch, len(deps)
			deps = append(deps, p)
			bytes = append(bytes, overlap)
		})
	}
	// Multiple refs can overlap the same producer region (e.g. eltwise
	// inputs resolving to one atom); cap at the producer's output size.
	for i := lo; i < len(deps); i++ {
		if lim := d.Atoms[deps[i]].OutputBytes(); bytes[i] > lim {
			bytes[i] = lim
		}
	}
	return deps, bytes
}

// regionRef names a required region of one producer layer's output.
type regionRef struct {
	layer  int
	region Region
}

// inputRegions back-projects output region r of layer l onto its producer
// layers, resolving through concat layers recursively.
func inputRegions(g *graph.Graph, l *graph.Layer, r Region) []regionRef {
	s := l.Shape
	var refs []regionRef
	switch l.Kind {
	case graph.OpInput:
		return nil
	case graph.OpFC, graph.OpGlobalPool:
		// Consumes the producer's whole tensor. (GlobalPool could in
		// principle restrict channels, but it is never partitioned —
		// keeping the full extent is always correct.)
		for _, in := range l.Inputs {
			p := g.Layer(in).Shape
			full := Region{H0: 0, H1: p.Ho, W0: 0, W1: p.Wo, C0: 0, C1: p.Co}
			refs = append(refs, resolve(g, in, full)...)
		}
		return refs
	case graph.OpEltwise:
		for _, in := range l.Inputs {
			refs = append(refs, resolve(g, in, r)...)
		}
		return refs
	case graph.OpActivation:
		for _, in := range l.Inputs {
			refs = append(refs, resolve(g, in, r)...)
		}
		return refs
	}
	// Conv-like (Conv, DWConv, Pool): spatial receptive field with halo.
	stride, pad := s.Stride, s.Pad
	if stride <= 0 {
		stride = 1
	}
	h0 := max(0, r.H0*stride-pad)
	h1 := min(s.Hi, (r.H1-1)*stride-pad+s.Kh)
	w0 := max(0, r.W0*stride-pad)
	w1 := min(s.Wi, (r.W1-1)*stride-pad+s.Kw)
	var c0, c1 int
	switch l.Kind {
	case graph.OpDepthwiseConv, graph.OpPool:
		c0, c1 = r.C0, r.C1 // channel-preserving
	default:
		c0, c1 = 0, s.Ci // dense conv consumes all input channels
	}
	in := l.Inputs[0]
	return resolve(g, in, Region{H0: h0, H1: h1, W0: w0, W1: w1, C0: c0, C1: c1})
}

// resolve maps a required region of layer `lid`'s output through any
// concat layers down to concrete (non-concat) producer regions.
func resolve(g *graph.Graph, lid int, r Region) []regionRef {
	l := g.Layer(lid)
	if l.Kind != graph.OpConcat {
		if r.empty() {
			return nil
		}
		return []regionRef{{layer: lid, region: r}}
	}
	var refs []regionRef
	off := 0
	for _, in := range l.Inputs {
		pc := g.Layer(in).Shape.Co
		lo, hi := max(r.C0, off), min(r.C1, off+pc)
		if lo < hi {
			sub := r
			sub.C0, sub.C1 = lo-off, hi-off
			refs = append(refs, resolve(g, in, sub)...)
		}
		off += pc
	}
	return refs
}

// collectOverlaps visits the IDs of sample-0 producer atoms whose regions
// overlap ref, passing the overlap volume in bytes.
func (d *DAG) collectOverlaps(ref regionRef, visit func(id int, overlap int64)) {
	gr, ok := d.grids[ref.layer]
	if !ok {
		// Producer was itself elided (concat feeding concat): resolve
		// another level down. This cannot recurse unboundedly because
		// resolve() already flattened concat chains; reaching here means
		// a bug in construction order.
		panic(fmt.Sprintf("atom: no grid for layer %d", ref.layer))
	}
	r := ref.region
	p := gr.part
	ih0, ih1 := r.H0/p.Hp, (r.H1-1)/p.Hp
	iw0, iw1 := r.W0/p.Wp, (r.W1-1)/p.Wp
	ic0, ic1 := r.C0/p.Cop, (r.C1-1)/p.Cop
	for ih := ih0; ih <= ih1 && ih < gr.nH; ih++ {
		for iw := iw0; iw <= iw1 && iw < gr.nW; iw++ {
			for ic := ic0; ic <= ic1 && ic < gr.nC; ic++ {
				id := gr.base + (ih*gr.nW+iw)*gr.nC + ic
				visit(id, overlapBytes(d.Atoms[id].Region, r))
			}
		}
	}
}

// overlapBytes returns the intersection volume of two regions.
func overlapBytes(a, b Region) int64 {
	h := int64(min(a.H1, b.H1) - max(a.H0, b.H0))
	w := int64(min(a.W1, b.W1) - max(a.W0, b.W0))
	c := int64(min(a.C1, b.C1) - max(a.C0, b.C0))
	if h <= 0 || w <= 0 || c <= 0 {
		return 0
	}
	return h * w * c
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
