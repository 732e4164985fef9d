package atom

import (
	"fmt"
	"slices"
)

// Validate checks the DAG's structural invariants, layer by layer in
// topological order so the first violation reported is deterministic:
//   - the row tables are well formed: offsets are monotone, every row is
//     a non-empty run of one layer's atoms, and the consumer-row index is
//     the exact inverse of the dep rows;
//   - dependency edges point strictly backward (acyclicity by
//     construction order) and carry a positive byte weight no larger
//     than the producer's output;
//   - each (layer, sample) grid exactly tiles its output tensor.
func (d *DAG) Validate() error {
	if err := d.validateRows(); err != nil {
		return err
	}
	for _, lid := range d.Graph.Topo() {
		gr := d.grids[lid]
		if gr.nC == 0 {
			continue
		}
		for id := gr.base; id < gr.base+gr.atoms(); id++ {
			ids, bytes, _ := d.Deps(id)
			for i, dep := range ids {
				if int(dep) >= id {
					return fmt.Errorf("atom %d: forward dep %d", id, dep)
				}
				if lim := d.Atoms[dep].OutputBytes(); bytes[i] <= 0 || bytes[i] > lim {
					return fmt.Errorf("atom %d: dep %d carries %d bytes (producer has %d)", id, dep, bytes[i], lim)
				}
			}
		}
		l := d.Graph.Layer(lid)
		for s := 0; s < d.Batch; s++ {
			var covered int64
			lo, hi := d.AtomRange(s, lid)
			for id := lo; id < hi; id++ {
				covered += d.Atoms[id].OutputBytes()
			}
			if covered != l.OutputBytes() {
				return fmt.Errorf("layer %d sample %d: atoms cover %d of %d bytes",
					lid, s, covered, l.OutputBytes())
			}
		}
	}
	return nil
}

// validateRows checks the row tables of block 0.
func (d *DAG) validateRows() error {
	if len(d.rowStart) != d.rows+1 || len(d.depOff) != d.rows+1 || len(d.consOff) != d.n+1 ||
		len(d.rowOf) != d.n || d.rowStart[0] != 0 || int(d.rowStart[d.rows]) != d.n {
		return fmt.Errorf("atom: row tables sized for %d rows of %d atoms", d.rows, d.n)
	}
	if d.depOff[0] != 0 || int(d.depOff[d.rows]) != len(d.depIDs) || len(d.depBytes) != len(d.depIDs) ||
		d.consOff[0] != 0 || int(d.consOff[d.n]) != len(d.consRows) || len(d.consRows) != len(d.depIDs) {
		return fmt.Errorf("atom: %d dep IDs, %d dep weights and %d consumer rows", len(d.depIDs), len(d.depBytes), len(d.consRows))
	}
	for r := 0; r < d.rows; r++ {
		lo, hi := int(d.rowStart[r]), int(d.rowStart[r+1])
		if lo >= hi || d.depOff[r] > d.depOff[r+1] {
			return fmt.Errorf("row %d: offsets not monotone", r)
		}
		for id := lo; id < hi; id++ {
			if int(d.rowOf[id]) != r || d.Atoms[id].Layer != d.Atoms[lo].Layer {
				return fmt.Errorf("row %d: atom %d does not belong to it", r, id)
			}
		}
		for _, dep := range d.depIDs[d.depOff[r]:d.depOff[r+1]] {
			if int(dep) >= lo {
				return fmt.Errorf("row %d (atoms %d..%d): forward dep %d", r, lo, hi-1, dep)
			}
		}
	}
	// The dep rows, walked in order, must meet each producer's consumer
	// rows in order, and use all of them.
	at := slices.Clone(d.consOff[:d.n])
	for r := 0; r < d.rows; r++ {
		for _, p := range d.depIDs[d.depOff[r]:d.depOff[r+1]] {
			if at[p] >= d.consOff[p+1] || d.consRows[at[p]] != int32(r) {
				return fmt.Errorf("atom %d: consumer rows miss row %d", p, r)
			}
			at[p]++
		}
	}
	for p := 0; p < d.n; p++ {
		if d.consOff[p] > d.consOff[p+1] {
			return fmt.Errorf("atom %d: consumer offsets not monotone", p)
		}
		if at[p] != d.consOff[p+1] {
			return fmt.Errorf("atom %d: consumer rows list a row without that dep", p)
		}
	}
	return nil
}
