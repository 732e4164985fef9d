package experiments

import (
	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they quantify the individual mechanisms
// (interconnect topology, mapping optimization, DP lookahead depth) on
// this implementation.

// TopologyRow is one (workload, topology) result.
type TopologyRow struct {
	Workload string
	Topology string
	TimeMS   float64
	NoCFrac  float64
	ByteHops int64
}

// Topologies compares the three modeled interconnects (2D mesh, torus,
// H-tree — the families named in Sec. IV-C) under atomic dataflow.
func Topologies(cfg Config) ([]TopologyRow, error) {
	base := cfg.hw()
	meshes := []*noc.Mesh{
		noc.NewMesh(8, 8, base.Mesh.LinkBytes),
		noc.NewTorus(8, 8, base.Mesh.LinkBytes),
		noc.NewHTree(64, base.Mesh.LinkBytes),
	}
	var rows []TopologyRow
	cfg.printf("Ablation — interconnect topology under atomic dataflow\n")
	for _, name := range cfg.workloads([]string{"resnet50", "inceptionv3"}) {
		g := mustModel(name)
		for _, m := range meshes {
			hw := base
			hw.Mesh = m
			rep, err := cfg.runAD(g, cfg.batch(4), hw)
			if err != nil {
				return nil, err
			}
			row := TopologyRow{
				Workload: name, Topology: m.Kind().String(),
				TimeMS: rep.TimeMS, NoCFrac: rep.NoCOverheadFraction(),
				ByteHops: rep.NoCByteHops,
			}
			rows = append(rows, row)
			cfg.printf("  %-14s %-6s %9.3f ms  NoC-blocked %5.1f%%  %6.1f MB-hops\n",
				name, row.Topology, row.TimeMS, 100*row.NoCFrac, float64(row.ByteHops)/1e6)
		}
	}
	return rows, nil
}

// MappingRow is one (workload, mapping mode) result.
type MappingRow struct {
	Workload  string
	Optimized bool
	TimeMS    float64
	ByteHops  int64
	DRAMBytes int64
	Energy    float64
}

// MappingAblation isolates the atom-engine mapping stage: the paper's
// TransferCost permutation search plus weight-affinity refinement versus
// naive zig-zag placement (Fig. 7's solution A vs B generalized).
func MappingAblation(cfg Config) ([]MappingRow, error) {
	hw := cfg.hw()
	var rows []MappingRow
	cfg.printf("Ablation — optimized vs naive atom-engine mapping\n")
	for _, name := range cfg.workloads([]string{"resnet50", "pnasnet"}) {
		g := mustModel(name)
		for _, optimized := range []bool{false, true} {
			h := hw
			h.NaiveMapping = !optimized
			rep, err := cfg.runAD(g, cfg.batch(4), h)
			if err != nil {
				return nil, err
			}
			rows = append(rows, MappingRow{
				Workload: name, Optimized: optimized,
				TimeMS: rep.TimeMS, ByteHops: rep.NoCByteHops,
				DRAMBytes: rep.DRAMReadBytes + rep.DRAMWriteBytes,
				Energy:    rep.Energy.TotalMJ(),
			})
			cfg.printf("  %-14s optimized=%-5v %9.3f ms  %6.1f MB-hops  %6.2f mJ\n",
				name, optimized, rep.TimeMS, float64(rep.NoCByteHops)/1e6, rep.Energy.TotalMJ())
		}
	}
	return rows, nil
}

// FlexRow is one (workload, dataflow) comparison result.
type FlexRow struct {
	Workload string
	Dataflow string
	TimeMS   float64
	Util     float64
}

// FlexDataflow implements the paper's Discussion (Sec. VI-A): atomic
// dataflow adapts to arrays that spatially map three loop parameters by
// merely changing the atom coefficient quantization. This experiment
// compares AD on the planar 16x16 KC-P array against the same-MAC-count
// 8x8x4 flexible array, where width splitting rescues shallow-channel
// layers.
func FlexDataflow(cfg Config) ([]FlexRow, error) {
	base := cfg.hw()
	var rows []FlexRow
	cfg.printf("Discussion — planar KC-P vs 3D flexible array (equal MACs)\n")
	for _, name := range cfg.workloads([]string{"resnet50", "efficientnet"}) {
		g := mustModel(name)
		for _, variant := range []struct {
			label string
			eng   engine.Config
			df    engine.Dataflow
		}{
			{"KC-P 16x16", engine.Default(), engine.KCPartition},
			{"Flex 8x8x4", engine.FlexDefault(), engine.FlexPartition},
		} {
			hw := base
			hw.Engine = variant.eng
			hw.Dataflow = variant.df
			rep, err := cfg.runAD(g, cfg.batch(1), hw)
			if err != nil {
				return nil, err
			}
			rows = append(rows, FlexRow{Workload: name, Dataflow: variant.label,
				TimeMS: rep.TimeMS, Util: rep.PEUtilization})
			cfg.printf("  %-14s %-11s %9.3f ms  util %5.1f%%\n",
				name, variant.label, rep.TimeMS, 100*rep.PEUtilization)
		}
	}
	return rows, nil
}

// SearchRow records the compile-time search cost for one workload.
type SearchRow struct {
	Workload   string
	Seconds    float64
	Atoms      int
	Rounds     int
	PaperXeonS float64 // the paper's reported Xeon E5-2620 time, 0 if unlisted
}

// paperSearchTimes are the search overheads the paper reports (Sec. V-B).
var paperSearchTimes = map[string]float64{
	"resnet50": 66.5, "resnet152": 102.7, "inceptionv3": 406.9, "resnet1001": 1044.6,
}

// SearchOverhead measures the full compile-time pipeline (SA + DAG +
// scheduling, Solution.SearchTime) per workload, the quantity the paper
// reports as 66.5 s (ResNet-50) to 1044.6 s (ResNet-1001) on a Xeon
// host. This implementation's closed-form Cycle() oracle makes it orders
// of magnitude faster.
func SearchOverhead(cfg Config) ([]SearchRow, error) {
	hw := cfg.hw()
	var rows []SearchRow
	cfg.printf("Search overhead — compile-time cost of the AD pipeline\n")
	for _, name := range cfg.workloads([]string{"resnet50", "resnet152", "inceptionv3"}) {
		sol, err := cfg.orchestrate(mustModel(name), cfg.batch(1), hw)
		if err != nil {
			return nil, err
		}
		row := SearchRow{
			Workload: name, Seconds: sol.SearchTime.Seconds(),
			Atoms: sol.Atoms, Rounds: sol.Rounds,
			PaperXeonS: paperSearchTimes[name],
		}
		rows = append(rows, row)
		cfg.printf("  %-14s %8.2f s (paper: %6.1f s) — %d atoms, %d rounds\n",
			name, row.Seconds, row.PaperXeonS, row.Atoms, row.Rounds)
	}
	return rows, nil
}

// LookaheadRow is one (lookahead depth) scheduling result.
type LookaheadRow struct {
	Lookahead  int
	MakespanLB int64
	TimeMS     float64
}

// LookaheadAblation sweeps the DP recursion depth of Algorithm 2 on one
// workload, showing the diminishing returns that justify the default of 3.
// The atoms do not depend on the depth, so one search and one atomic DAG
// are re-scheduled and re-simulated per depth.
func LookaheadAblation(cfg Config) ([]LookaheadRow, error) {
	hw := cfg.hw()
	name := "pnascell"
	if w := cfg.workloads(nil); len(w) > 0 {
		name = w[0]
	}
	g := mustModel(name)
	sa := anneal.SA(g, hw.Engine, hw.Dataflow, cfg.annealOpts(hw))
	d, err := atom.Build(g, cfg.batch(4), sa.Spec)
	if err != nil {
		return nil, err
	}
	var rows []LookaheadRow
	cfg.printf("Ablation — DP lookahead depth on %s\n", name)
	for _, depth := range []int{1, 2, 3, 5} {
		s, err := schedule.Build(d, schedule.Options{
			Engines: hw.Mesh.Engines(), Mode: schedule.DP, Lookahead: depth,
			EngineCfg: hw.Engine, Dataflow: hw.Dataflow, Oracle: hw.Oracle,
		})
		if err != nil {
			return nil, err
		}
		rep, err := sim.Run(d, s, hw)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LookaheadRow{
			Lookahead: depth, MakespanLB: s.MakespanLB(), TimeMS: rep.TimeMS,
		})
		cfg.printf("  depth %d: makespan-LB %d cycles, %9.3f ms\n",
			depth, s.MakespanLB(), rep.TimeMS)
	}
	return rows, nil
}
