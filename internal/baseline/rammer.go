package baseline

import (
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Rammer simulates a Rammer-style rTask scheduler (paper Sec. V-D, VI):
// operators are split into even rTasks (the LS partition — Rammer "does
// not discuss how the rTasks are generated") and independent operators
// are co-located onto idle engines by a greedy DAG packer. Unlike atomic
// dataflow it performs no utilization-aware atom sizing and no
// spatial-reuse-aware mapping (rTasks land on whatever engine is free,
// oblivious to where their operands live), so it sits between LS and AD:
// co-location fills idle engines, but task-engine mismatch and blind
// placement remain.
func Rammer(g *graph.Graph, batch int, cfg sim.Config) (sim.Report, error) {
	n := cfg.Mesh.Engines()
	d, err := atom.Build(g, batch, EvenSpec(g, n))
	if err != nil {
		return sim.Report{}, err
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: n, Mode: schedule.Greedy,
		EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow, Oracle: cfg.Oracle,
	})
	if err != nil {
		return sim.Report{}, err
	}
	naive := cfg
	naive.NaiveMapping = true
	return sim.Run(d, s, naive)
}
