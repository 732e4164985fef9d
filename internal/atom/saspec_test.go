package atom_test

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

// TestSASpecMatchesReference compares the row-shared DAG with the
// per-sample reference under the spec a default-knob search (seed 1)
// picks, the partitions production compiles run on, at batch 1 and 8.
func TestSASpecMatchesReference(t *testing.T) {
	for _, name := range []string{"resnet50", "inceptionv3", "deepchain1k"} {
		g := models.MustBuild(name)
		spec := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{Seed: 1}).Spec
		for _, batch := range []int{1, 8} {
			d, err := atom.Build(g, batch, spec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := atom.BuildReference(g, batch, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := atom.EqualDAG(g, batch, d, ref); err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
		}
	}
}

// TestCountDepsExactOnSASpecs checks Build's count pass against the dep
// entries it then appends, under the spec a default-knob search picks for
// every zoo model under KC-P and YX-P: the two are equal, and the lists
// are allocated once at that size.
func TestCountDepsExactOnSASpecs(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, df := range []engine.Dataflow{engine.KCPartition, engine.YXPartition} {
			spec := anneal.SA(g, engine.Default(), df, anneal.Options{Seed: 1}).Spec
			d, err := atom.Build(g, 1, spec)
			if err != nil {
				t.Fatal(err)
			}
			n, c := atom.DepsLenCap(d)
			if count := atom.CountDeps(d); count != n || c != n {
				t.Errorf("%s %v: count pass %d, %d dep entries appended into capacity %d", name, df, count, n, c)
			}
		}
	}
}
