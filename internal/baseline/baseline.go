// Package baseline implements the orchestration strategies the paper
// compares against atomic dataflow (Sec. II-B, V-A):
//
//   - LS — Layer-Sequential: one layer at a time, evenly partitioned
//     across all engines, enhanced with multi-sample co-mapping for batch
//     workloads (as the paper's strengthened baseline).
//   - CNNP — CNN-Partition [Shen et al.]: engines clustered into CLPs, each
//     CLP owns a contiguous layer range, images pipeline through segments,
//     every CLP streams ifmaps/weights/ofmaps through DRAM.
//   - ILPipe — Inter-Layer Pipelining [Tangram]: engines partitioned
//     proportionally to per-stage compute, cascaded layers mapped to
//     adjacent regions, intermediate tensors forwarded on-chip, enhanced
//     with ALLO fine-grained pipelining that halves fill/drain delay.
//   - Rammer — rTask-style co-location (Sec. V-D): independent operators
//     packed onto idle engines like AD, but with no utilization-aware atom
//     sizing, no spatial-reuse-aware mapping and no inter-engine buffering.
//
// LS and Rammer plug into the same atomic-DAG buffer manager and
// event-driven simulator as atomic dataflow; CNN-P and IL-Pipe, whose
// execution models are segment/stage pipelines rather than Rounds, have
// dedicated analytic simulators built on the same engine/DRAM/NoC/energy
// substrates.
package baseline

import (
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// evenSplit partitions a layer into at most n tiles, splitting the output
// H dimension first, then W, then channels — the layer-sequential strategy
// of TETRIS/Neurocube the paper's LS baseline models. The returned tile
// count is the number of engines the layer can actually occupy.
func evenSplit(l *graph.Layer, n int) (atom.Partition, int) {
	s := l.Shape
	nH := minInt(s.Ho, n)
	nW := minInt(s.Wo, n/nH)
	if nW < 1 {
		nW = 1
	}
	nC := minInt(s.Co, n/(nH*nW))
	if nC < 1 {
		nC = 1
	}
	p := atom.Partition{
		Hp:  ceilDiv(s.Ho, nH),
		Wp:  ceilDiv(s.Wo, nW),
		Cop: ceilDiv(s.Co, nC),
	}
	return p, p.Tiles(l)
}

// EvenSpec builds the even-partition Spec of every non-virtual layer on n
// engines (see evenSplit): the atoms of the LS and Rammer baselines and
// of the Fig. 10 ablation's first stage.
func EvenSpec(g *graph.Graph, n int) atom.Spec {
	spec := make(atom.Spec)
	for _, l := range g.Layers {
		if l.Kind == graph.OpInput || l.Kind == graph.OpConcat {
			continue
		}
		spec[l.ID], _ = evenSplit(l, n)
	}
	return spec
}

// layerEngineCycles prices one layer evenly split across n engines:
// the slowest tile's cycles (tiles run concurrently, one wave).
func layerEngineCycles(orc cost.Oracle, l *graph.Layer, cfg engine.Config, df engine.Dataflow, n int) int64 {
	p, tiles := evenSplit(l, n)
	c := orc.Evaluate(cfg, df, engine.TileTask(l, p.Hp, p.Wp, p.Cop))
	waves := ceilDiv(tiles, n)
	return c.Cycles * int64(waves)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
