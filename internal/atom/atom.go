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
	"sync"

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

// region is a half-open sub-box of a layer's output tensor, the unit of
// the builder's receptive-field back-projection.
type region struct {
	H0, H1 int // [H0, H1) along Ho
	W0, W1 int
	C0, C1 int // along Co
}

func (r region) empty() bool { return r.H1 <= r.H0 || r.W1 <= r.W0 || r.C1 <= r.C0 }

// Atom is one vertex of the atomic DAG: one tile of one layer's output
// for one batch sample, and the engine.Task that prices its execution.
// An atom's ID is its index in DAG.Atoms. Its output region and the
// weight slice it reads follow from its layer's tiling; the DAG owns
// both (see DAG.WeightSlice). It holds no pointers; its edges live in
// the DAG's row tables and are read through DAG.Deps and
// DAG.ConsumerRows.
type Atom struct {
	Layer  int // layer ID in the source graph
	Sample int // batch index
	Task   engine.Task
}

// OutputBytes returns the atom's produced tensor bytes.
func (a *Atom) OutputBytes() int64 { return a.Task.OutputBytes() }

// grid records the regular tiling of one layer in sample 0 so that
// region→atom lookups are O(overlap) instead of O(atoms).
type grid struct {
	part       Partition
	nH, nW, nC int
	base       int // first atom ID of this grid in sample 0
}

func (g grid) atoms() int { return g.nH * g.nW * g.nC }

// tile returns the output region of tile (ih, iw, ic) of a layer of
// shape s; edge tiles are clipped to the tensor.
func (g grid) tile(s graph.Shape, ih, iw, ic int) region {
	p := g.part
	return region{
		H0: ih * p.Hp, H1: min((ih+1)*p.Hp, s.Ho),
		W0: iw * p.Wp, W1: min((iw+1)*p.Wp, s.Wo),
		C0: ic * p.Cop, C1: min((ic+1)*p.Cop, s.Co),
	}
}

// sharesRows reports whether every output-channel tile of one (ih, iw)
// tile of a layer of kind k has the same dependency list: a dense conv
// reads all input channels, and FC and GlobalPool read the whole input.
func sharesRows(k graph.OpKind) bool {
	return k == graph.OpConv || k == graph.OpFC || k == graph.OpGlobalPool
}

// DAG is the atomic computation graph, its edges in compressed sparse row
// form keyed by rows. A row is a contiguous atom-ID range with one shared
// dependency list: one (ih, iw) tile's nC atoms of a Conv, FC or
// GlobalPool layer, or a single atom of any other layer.
//
// Only sample 0's rows are stored. No edge crosses samples, so sample s
// is sample 0 with every atom ID offset by s·n and every row by s·R (n
// atoms and R rows per sample); the accessors return sample-0 lists with
// the offset to add.
//
// The DAG also numbers the weight slices: one per output-channel tile of
// every layer whose tiles carry weights, dense in (layer ID, channel
// tile) order. Weights are shared across samples and spatial tiles, so
// every atom of one (layer, channel tile) reads the same slice.
type DAG struct {
	Graph *graph.Graph
	Batch int
	Atoms []Atom

	grids []grid // by layer ID; nC == 0 marks an elided (concat) layer
	n     int    // atoms per replicated block: sample s holds IDs [s·n, (s+1)·n)
	rows  int    // rows per block

	rowOf    []int32 // block atom -> row
	rowStart []int32 // rows+1 entries: row r holds atoms [rowStart[r], rowStart[r+1])
	depOff   []int32 // rows+1 entries: row r's deps are depIDs/depBytes[depOff[r]:depOff[r+1]]
	depIDs   []int32
	depBytes []int64
	consOff  []int32 // n+1 entries: atom id's consumer rows are consRows[consOff[id]:consOff[id+1]]
	consRows []int32 // ascending per producer

	wslice  []int32 // block atom -> weight slice id, -1 when it reads none
	nslices int
}

// NumAtoms returns the vertex count.
func (d *DAG) NumAtoms() int { return len(d.Atoms) }

// BlockAtoms returns n, the atom count of one replicated block: atom id
// is a replica of atom id mod n, with the same layer and Task. Build's
// blocks are its samples; FromLists makes one block of every atom.
func (d *DAG) BlockAtoms() int { return d.n }

// NumRows returns the row count over all samples.
func (d *DAG) NumRows() int {
	if d.n == 0 {
		return 0
	}
	return d.rows * (len(d.Atoms) / d.n)
}

// block splits atom id into its replicated block and its ID in block 0.
func (d *DAG) block(id int) (s, id0 int) {
	if id < d.n {
		return 0, id
	}
	s = id / d.n
	return s, id - s*d.n
}

// Deps returns the producers of atom id: producer i is atom ids[i]+off
// and the edge carries bytes[i], the overlap between that producer's
// output region and the atom's receptive field. Atoms of input layers
// have no deps (their data is in DRAM). The slices must not be modified.
func (d *DAG) Deps(id int) (ids []int32, bytes []int64, off int32) {
	s, id0 := d.block(id)
	r := d.rowOf[id0]
	lo, hi := d.depOff[r], d.depOff[r+1]
	return d.depIDs[lo:hi], d.depBytes[lo:hi], int32(s * d.n)
}

// ConsumerRows returns the rows reading atom id's output, ascending: row
// rows[i]+off. The slice must not be modified.
func (d *DAG) ConsumerRows(id int) (rows []int32, off int32) {
	s, id0 := d.block(id)
	return d.consRows[d.consOff[id0]:d.consOff[id0+1]], int32(s * d.rows)
}

// Row returns the row holding atom id. Atoms of one row share their
// dependency list.
func (d *DAG) Row(id int) int {
	s, id0 := d.block(id)
	return int(d.rowOf[id0]) + s*d.rows
}

// WeightSlice returns the weight slice atom id reads, or -1 if it reads
// none. Replicas read their sample-0 twin's slice.
func (d *DAG) WeightSlice(id int) int {
	_, id0 := d.block(id)
	return int(d.wslice[id0])
}

// NumWeightSlices returns the weight slice count; slice ids are
// [0, NumWeightSlices()).
func (d *DAG) NumWeightSlices() int { return d.nslices }

// RowAtoms returns the atom-ID range [lo, hi) of row r.
func (d *DAG) RowAtoms(r int) (lo, hi int) {
	s := r / d.rows
	r0, off := r-s*d.rows, s*d.n
	return int(d.rowStart[r0]) + off, int(d.rowStart[r0+1]) + off
}

// AtomRange returns the atom-ID range [lo, hi) of one (sample, layer), or
// an empty range if the layer is elided (concat) or absent or the sample
// is out of range.
func (d *DAG) AtomRange(sample, layerID int) (lo, hi int) {
	if layerID < 0 || layerID >= len(d.grids) || sample < 0 || sample >= d.Batch {
		return 0, 0
	}
	g := d.grids[layerID]
	lo = g.base + sample*d.n
	return lo, lo + g.atoms()
}

// FromLists builds a DAG from explicit atoms and per-atom dependency
// lists, one row per atom and a single replicated block, so atoms of
// every sample carry their own lists. It is for hand-drawn DAGs: deps[i]
// and bytes[i] are atom i's producers and edge bytes, and wslice[i] the
// weight slice it reads (-1 for none; a nil wslice means no atom reads
// one).
func FromLists(g *graph.Graph, batch int, atoms []Atom, deps [][]int, bytes [][]int64, wslice []int32) *DAG {
	n := len(atoms)
	d := &DAG{Graph: g, Batch: batch, Atoms: atoms, n: n, rows: n,
		rowOf: make([]int32, n), rowStart: make([]int32, n+1), depOff: make([]int32, n+1),
		wslice: wslice}
	if wslice == nil {
		d.wslice = make([]int32, n)
		for id := range d.wslice {
			d.wslice[id] = -1
		}
	}
	for _, w := range d.wslice {
		d.nslices = max(d.nslices, int(w)+1)
	}
	for id := range atoms {
		d.rowOf[id], d.rowStart[id+1] = int32(id), int32(id+1)
		for i, p := range deps[id] {
			d.depIDs = append(d.depIDs, int32(p))
			d.depBytes = append(d.depBytes, bytes[id][i])
		}
		d.depOff[id+1] = int32(len(d.depIDs))
	}
	d.indexConsumers()
	return d
}

// indexConsumers fills the consumer-row CSR from the dep rows. Rows are
// walked in order, so each producer's consumer rows come out ascending.
func (d *DAG) indexConsumers() {
	d.consOff = make([]int32, d.n+1)
	for _, p := range d.depIDs {
		d.consOff[p+1]++
	}
	for i := 1; i <= d.n; i++ {
		d.consOff[i] += d.consOff[i-1]
	}
	d.consRows = make([]int32, len(d.depIDs))
	at := slices.Clone(d.consOff[:d.n])
	for r := 0; r < d.rows; r++ {
		for _, p := range d.depIDs[d.depOff[r]:d.depOff[r+1]] {
			d.consRows[at[p]] = int32(r)
			at[p]++
		}
	}
}

// Build constructs the atomic DAG for the workload graph under the given
// per-layer partition spec and batch size.
//
// Only sample 0 is tiled and wired, one dependency list per row; the
// other samples' atoms are copies of sample 0's with their Sample
// advanced, and their edges and weight slices stay implicit.
func Build(g *graph.Graph, batch int, spec Spec) (*DAG, error) {
	if batch < 1 {
		return nil, fmt.Errorf("atom: batch %d < 1", batch)
	}
	d := &DAG{Graph: g, Batch: batch, grids: make([]grid, g.NumLayers())}
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
			nC: ceilDiv(s.Co, part.Cop), base: d.n}
		d.grids[lid] = gr
		d.n += gr.atoms()
		if sharesRows(l.Kind) {
			d.rows += gr.nH * gr.nW
		} else {
			d.rows += gr.atoms()
		}
	}
	d.Atoms = make([]Atom, d.n*batch)
	d.buildSample0()
	d.indexConsumers()
	d.numberSlices()
	for s := 1; s < batch; s++ {
		blk := d.Atoms[s*d.n : (s+1)*d.n]
		copy(blk, d.Atoms[:d.n])
		for i := range blk {
			blk[i].Sample = s
		}
	}
	return d, nil
}

// numberSlices gives each output-channel tile of every weighted layer a
// slice id, walking the layers in ID order: a layer's nC channel tiles
// take nC consecutive ids.
func (d *DAG) numberSlices() {
	d.wslice = make([]int32, d.n)
	for _, gr := range d.grids {
		lo, hi := gr.base, gr.base+gr.atoms()
		if lo == hi {
			continue
		}
		if d.Atoms[lo].Task.WeightBytes() == 0 {
			for id := lo; id < hi; id++ {
				d.wslice[id] = -1
			}
			continue
		}
		for id := lo; id < hi; id++ {
			d.wslice[id] = int32(d.nslices + (id-lo)%gr.nC)
		}
		d.nslices += gr.nC
	}
}

// buildSample0 tiles every layer of sample 0 and wires its rows. A count
// pass over the same back-projected regions sizes the dep lists first, so
// they are allocated once and never grow.
func (d *DAG) buildSample0() {
	n := d.n
	d.rowOf = make([]int32, n)
	d.rowStart = make([]int32, 0, d.rows+1)
	d.depOff = make([]int32, 1, d.rows+1)
	sc := scratchPool.Get().(*buildScratch)
	sc.reset(n)
	edges := d.countDeps(sc)
	d.depIDs, d.depBytes = make([]int32, 0, edges), make([]int64, 0, edges)
	for _, lid := range d.Graph.Topo() {
		gr := d.grids[lid]
		if gr.nC == 0 {
			continue
		}
		l := d.Graph.Layer(lid)
		shared := sharesRows(l.Kind)
		id := gr.base
		for ih := 0; ih < gr.nH; ih++ {
			for iw := 0; iw < gr.nW; iw++ {
				for ic := 0; ic < gr.nC; ic++ {
					r := gr.tile(l.Shape, ih, iw, ic)
					d.Atoms[id] = Atom{Layer: lid, Task: engine.TileTask(l, r.H1-r.H0, r.W1-r.W0, r.C1-r.C0)}
					if !shared || ic == 0 {
						d.rowStart = append(d.rowStart, int32(id))
						d.appendDeps(sc, l, r)
						d.depOff = append(d.depOff, int32(len(d.depIDs)))
					}
					d.rowOf[id] = int32(len(d.rowStart) - 1)
					id++
				}
			}
		}
	}
	d.rowStart = append(d.rowStart, int32(n))
	scratchPool.Put(sc)
}

// countDeps returns an upper bound on sample 0's dep-list entries: for
// every row, the producer tiles addOverlaps visits, summed over the row's
// back-projected regions. A producer tile that two regions of one row
// both reach (an eltwise layer reading one tensor twice) is counted
// twice but listed once.
func (d *DAG) countDeps(sc *buildScratch) int {
	edges := 0
	for _, lid := range d.Graph.Topo() {
		gr := d.grids[lid]
		if gr.nC == 0 {
			continue
		}
		l := d.Graph.Layer(lid)
		nC := gr.nC
		if sharesRows(l.Kind) {
			nC = 1 // one row per (ih, iw) tile
		}
		for ih := 0; ih < gr.nH; ih++ {
			for iw := 0; iw < gr.nW; iw++ {
				for ic := 0; ic < nC; ic++ {
					sc.refs = appendInputRegions(sc.refs[:0], d.Graph, l, gr.tile(l.Shape, ih, iw, ic))
					for _, ref := range sc.refs {
						h0, h1, w0, w1, c0, c1 := d.overlapTiles(ref)
						edges += (h1 - h0) * (w1 - w0) * (c1 - c0)
					}
				}
			}
		}
	}
	return edges
}

// buildScratch is Build's working memory, pooled across builds.
type buildScratch struct {
	// stamp and pos map producer atom IDs to their index in the dep list
	// being assembled. An entry is live only while stamp[id] equals the
	// current row's number plus one, so no per-row reset is needed.
	stamp, pos []int32
	refs       []regionRef
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// reset readies the scratch for a build of n atoms per sample.
func (sc *buildScratch) reset(n int) {
	if cap(sc.stamp) < n {
		sc.stamp, sc.pos = make([]int32, n), make([]int32, n)
	}
	sc.stamp, sc.pos = sc.stamp[:n], sc.pos[:n]
	clear(sc.stamp)
}

// appendDeps appends the next row's dep list to the DAG's: the sample-0
// producer atoms whose outputs overlap the input receptive field of
// region r of layer l, together with the per-edge overlap volume in
// bytes.
func (d *DAG) appendDeps(sc *buildScratch, l *graph.Layer, r region) {
	lo, epoch := len(d.depIDs), int32(len(d.depOff))
	sc.refs = appendInputRegions(sc.refs[:0], d.Graph, l, r)
	for _, ref := range sc.refs {
		d.addOverlaps(sc, ref, epoch)
	}
	// Multiple refs can overlap the same producer region (e.g. eltwise
	// inputs resolving to one atom); cap at the producer's output size.
	for i := lo; i < len(d.depIDs); i++ {
		if lim := d.Atoms[d.depIDs[i]].OutputBytes(); d.depBytes[i] > lim {
			d.depBytes[i] = lim
		}
	}
}

// regionRef names a required region of one producer layer's output.
type regionRef struct {
	layer  int
	region region
}

// appendInputRegions appends to refs the back-projection of output
// region r of layer l onto its producer layers, resolving through concat
// layers recursively.
func appendInputRegions(refs []regionRef, g *graph.Graph, l *graph.Layer, r region) []regionRef {
	s := l.Shape
	switch l.Kind {
	case graph.OpInput:
		return refs
	case graph.OpFC, graph.OpGlobalPool:
		// Consumes the producer's whole tensor. (GlobalPool could in
		// principle restrict channels, but it is never partitioned —
		// keeping the full extent is always correct.)
		for _, in := range l.Inputs {
			p := g.Layer(in).Shape
			refs = appendResolved(refs, g, in, region{H0: 0, H1: p.Ho, W0: 0, W1: p.Wo, C0: 0, C1: p.Co})
		}
		return refs
	case graph.OpEltwise, graph.OpActivation:
		for _, in := range l.Inputs {
			refs = appendResolved(refs, g, in, r)
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
	return appendResolved(refs, g, l.Inputs[0], region{H0: h0, H1: h1, W0: w0, W1: w1, C0: c0, C1: c1})
}

// appendResolved appends to refs a required region of layer lid's
// output, mapped through any concat layers down to concrete (non-concat)
// producer regions.
func appendResolved(refs []regionRef, g *graph.Graph, lid int, r region) []regionRef {
	l := g.Layer(lid)
	if l.Kind != graph.OpConcat {
		if r.empty() {
			return refs
		}
		return append(refs, regionRef{layer: lid, region: r})
	}
	off := 0
	for _, in := range l.Inputs {
		pc := g.Layer(in).Shape.Co
		lo, hi := max(r.C0, off), min(r.C1, off+pc)
		if lo < hi {
			sub := r
			sub.C0, sub.C1 = lo-off, hi-off
			refs = appendResolved(refs, g, in, sub)
		}
		off += pc
	}
	return refs
}

// addOverlaps adds to the row being assembled the sample-0 producer atoms
// whose regions overlap ref, with the overlap volume in bytes. Tile i of
// a producer axis of extent n cut every t spans [i·t, min((i+1)·t, n)),
// so the volume factors into three spans.
func (d *DAG) addOverlaps(sc *buildScratch, ref regionRef, epoch int32) {
	gr := d.grids[ref.layer]
	r, p, s := ref.region, gr.part, d.Graph.Layer(ref.layer).Shape
	h0, h1, w0, w1, c0, c1 := d.overlapTiles(ref)
	for ih := h0; ih < h1; ih++ {
		h := span(ih, p.Hp, s.Ho, r.H0, r.H1)
		for iw := w0; iw < w1; iw++ {
			w := span(iw, p.Wp, s.Wo, r.W0, r.W1)
			for ic := c0; ic < c1; ic++ {
				c := span(ic, p.Cop, s.Co, r.C0, r.C1)
				var overlap int64
				if h > 0 && w > 0 && c > 0 {
					overlap = h * w * c
				}
				id := gr.base + (ih*gr.nW+iw)*gr.nC + ic
				if sc.stamp[id] == epoch {
					d.depBytes[sc.pos[id]] += overlap
					continue
				}
				sc.stamp[id], sc.pos[id] = epoch, int32(len(d.depIDs))
				d.depIDs = append(d.depIDs, int32(id))
				d.depBytes = append(d.depBytes, overlap)
			}
		}
	}
}

// overlapTiles returns the producer tile ranges [h0, h1) x [w0, w1) x
// [c0, c1) of ref's layer grid that its region touches.
func (d *DAG) overlapTiles(ref regionRef) (h0, h1, w0, w1, c0, c1 int) {
	gr := d.grids[ref.layer]
	if gr.nC == 0 {
		// Producer was itself elided (concat feeding concat). This cannot
		// happen because appendResolved already flattened concat chains;
		// reaching here means a bug in construction order.
		panic(fmt.Sprintf("atom: no grid for layer %d", ref.layer))
	}
	r, p := ref.region, gr.part
	return r.H0 / p.Hp, min((r.H1-1)/p.Hp+1, gr.nH),
		r.W0 / p.Wp, min((r.W1-1)/p.Wp+1, gr.nW),
		r.C0 / p.Cop, min((r.C1-1)/p.Cop+1, gr.nC)
}

// span returns the length of the overlap of tile [i·t, min((i+1)·t, n))
// with [lo, hi), or a non-positive number if they are disjoint.
func span(i, t, n, lo, hi int) int64 {
	return int64(min(min((i+1)*t, n), hi) - max(i*t, lo))
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
