package schedule

import (
	"fmt"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

// depsOf expands atom id's producers and edge bytes.
func depsOf(d *atom.DAG, id int) ([]int, []int64) {
	ids, bytes, off := d.Deps(id)
	deps := make([]int, len(ids))
	for i, p := range ids {
		deps[i] = int(p + off)
	}
	return deps, bytes
}

// perAtomDAG copies d with its edges expanded to one row per atom, so the
// scheduler's row in-degrees over it are plain per-atom in-degrees.
func perAtomDAG(d *atom.DAG) *atom.DAG {
	deps, bytes := make([][]int, d.NumAtoms()), make([][]int64, d.NumAtoms())
	wslice := make([]int32, d.NumAtoms())
	for id := range d.Atoms {
		deps[id], bytes[id] = depsOf(d, id)
		wslice[id] = int32(d.WeightSlice(id))
	}
	return atom.FromLists(d.Graph, d.Batch, slices.Clone(d.Atoms), deps, bytes, wslice)
}

// TestRowIndegMatchesReference checks that counting in-degrees per shared
// row is a pure speed-up: on the default-knob specs of three paper-scale
// models, Build over the row-shared DAG yields the Rounds a per-atom
// in-degree frontier yields, in DP and Greedy, at batch 1, 3 and 8.
func TestRowIndegMatchesReference(t *testing.T) {
	for _, model := range []string{"resnet50", "inceptionv3", "deepchain1k"} {
		g := models.MustBuild(model)
		spec := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{Seed: 1}).Spec
		for _, batch := range []int{1, 3, 8} {
			d, err := atom.Build(g, batch, spec)
			if err != nil {
				t.Fatal(err)
			}
			if d.NumRows() == d.NumAtoms() {
				t.Fatalf("%s: no row holds more than one atom", model)
			}
			ref := perAtomDAG(d)
			for _, mode := range []Mode{DP, Greedy} {
				name := fmt.Sprintf("%s/b%d/mode%d", model, batch, mode)
				got, err := Build(d, opts(64, mode))
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(ref, opts(64, mode))
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Rounds) != len(want.Rounds) {
					t.Fatalf("%s: %d Rounds, per-atom reference %d", name, len(got.Rounds), len(want.Rounds))
				}
				for i := range got.Rounds {
					if !slices.Equal(got.Rounds[i].Atoms, want.Rounds[i].Atoms) {
						t.Fatalf("%s: Round %d %v, per-atom reference %v", name, i, got.Rounds[i].Atoms, want.Rounds[i].Atoms)
					}
				}
			}
		}
	}
}
