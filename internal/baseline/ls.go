package baseline

import (
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// LS simulates the Layer-Sequential baseline: layers run strictly one at a
// time in topological order, each evenly partitioned across all engines.
// When a layer's even partition cannot occupy every engine, atoms of
// multiple batch samples are co-mapped in the same Round (the paper's
// enhanced LS for batch processing).
func LS(g *graph.Graph, batch int, cfg sim.Config) (sim.Report, error) {
	d, s, err := lsSchedule(g, batch, cfg)
	if err != nil {
		return sim.Report{}, err
	}
	return sim.Run(d, s, cfg)
}

// lsSchedule builds the LS atomic DAG and Round schedule without
// simulating them.
func lsSchedule(g *graph.Graph, batch int, cfg sim.Config) (*atom.DAG, *schedule.Schedule, error) {
	n := cfg.Mesh.Engines()
	spec := EvenSpec(g, n)
	d, err := atom.Build(g, batch, spec)
	if err != nil {
		return nil, nil, err
	}
	var rounds [][]int
	for _, lid := range g.Topo() {
		l := g.Layer(lid)
		if l.Kind == graph.OpInput || l.Kind == graph.OpConcat {
			continue
		}
		// Samples co-mapped per Round: fill idle engines with the same
		// layer from subsequent samples.
		group := n / spec[lid].Tiles(l)
		if group < 1 {
			group = 1
		}
		for s0 := 0; s0 < batch; s0 += group {
			var round []int
			for smp := s0; smp < minInt(s0+group, batch); smp++ {
				lo, hi := d.AtomRange(smp, lid)
				for id := lo; id < hi; id++ {
					round = append(round, id)
				}
			}
			// A layer with more tiles than engines needs several waves.
			for off := 0; off < len(round); off += n {
				rounds = append(rounds, round[off:minInt(off+n, len(round))])
			}
		}
	}
	s, err := schedule.FromRounds(d, rounds, schedule.Options{
		Engines: n, EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow, Oracle: cfg.Oracle,
	})
	if err != nil {
		return nil, nil, err
	}
	return d, s, nil
}

// LayerUtilization computes the per-layer PE utilization of the naive LS
// strategy (each layer evenly partitioned across all engines, batch 1,
// communication excluded) — the quantity plotted in the paper's Fig. 2 —
// and its layer-averaged mean over compute layers.
func LayerUtilization(orc cost.Oracle, g *graph.Graph, cfg engine.Config, df engine.Dataflow, n int) (perLayer []float64, avg float64) {
	orc = cost.Or(orc)
	ids := g.ComputeLayers()
	perLayer = make([]float64, 0, len(ids))
	for _, lid := range ids {
		l := g.Layer(lid)
		p, tiles := evenSplit(l, n)
		c := orc.Evaluate(cfg, df, engine.TileTask(l, p.Hp, p.Wp, p.Cop))
		// Engine-level utilization of the slowest wave, discounted by the
		// fraction of engines the layer occupies at all.
		occupancy := float64(minInt(tiles, n)) / float64(n)
		perLayer = append(perLayer, c.Utilization*occupancy)
	}
	for _, u := range perLayer {
		avg += u
	}
	if len(perLayer) > 0 {
		avg /= float64(len(perLayer))
	}
	return perLayer, avg
}
