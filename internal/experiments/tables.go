package experiments

import (
	"github.com/atomic-dataflow/atomicflow/internal/baseline"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Table1Row characterizes one workload (paper Table I). Layer counts
// differ from the paper's because BatchNorm/activations are fused in our
// graphs (see internal/models); the structure column and parameter counts
// are directly comparable.
type Table1Row struct {
	Workload       string
	Layers         int
	ComputeLayers  int
	ParamsMillions float64
	GMACs          float64
	Depth          int
	Characteristic string
}

var characteristics = map[string]string{
	"vgg19":        "layer cascaded",
	"resnet50":     "residual bypass",
	"resnet152":    "residual bypass",
	"resnet1001":   "residual bypass",
	"inceptionv3":  "branching cells",
	"nasnet":       "NAS-generated",
	"pnasnet":      "NAS-generated",
	"efficientnet": "NAS-generated",
}

// Table1 reproduces the workload characterization table.
func Table1(cfg Config) ([]Table1Row, error) {
	var rows []Table1Row
	cfg.printf("Table I — DNN workload characterization\n")
	cfg.printf("  %-14s %7s %8s %9s %8s %6s  %s\n",
		"model", "layers", "compute", "params", "GMACs", "depth", "structure")
	for _, name := range cfg.workloads(models.PaperWorkloads) {
		g := mustModel(name)
		row := Table1Row{
			Workload:       name,
			Layers:         g.NumLayers(),
			ComputeLayers:  len(g.ComputeLayers()),
			ParamsMillions: float64(g.TotalParams()) / 1e6,
			GMACs:          float64(g.TotalMACs()) / 1e9,
			Depth:          g.MaxDepth(),
			Characteristic: characteristics[name],
		}
		rows = append(rows, row)
		cfg.printf("  %-14s %7d %8d %8.1fM %8.1f %6d  %s\n",
			name, row.Layers, row.ComputeLayers, row.ParamsMillions, row.GMACs,
			row.Depth, row.Characteristic)
	}
	return rows, nil
}

// Table2Row is one workload column of the paper's Table II.
type Table2Row struct {
	Workload string
	// ComputeUtil holds PE utilization without memory delay per strategy
	// (LS, CNN-P, IL-Pipe, AD), batch 20.
	ComputeUtil map[string]float64
	// NoCOverheadAD is the fraction of AD's total time blocked on the NoC.
	NoCOverheadAD float64
	// ReuseRatioAD is AD's on-chip data reuse ratio.
	ReuseRatioAD float64
}

// Table2 reproduces Table II: (1) PE utilization averaged without memory
// access delay at batch 20 for the four strategies (paper: AD 78.8-95.0%,
// always the highest) and (2) AD's NoC overhead (9.4-17.6%) and on-chip
// reuse ratio (54.1-90.8%).
func Table2(cfg Config) ([]Table2Row, error) {
	hw := cfg.hw()
	batch := cfg.batch(20)
	var rows []Table2Row
	cfg.printf("Table II — PE utilization w/o memory delay (batch=%d), NoC overhead, reuse\n", batch)
	cfg.printf("  %-14s %6s %6s %6s %6s %8s %8s\n",
		"model", "LS", "CNN-P", "ILPipe", "AD", "NoC(AD)", "reuse(AD)")
	for _, name := range cfg.workloads(models.PaperWorkloads) {
		g := mustModel(name)
		row := Table2Row{Workload: name, ComputeUtil: make(map[string]float64)}

		type runner func(*graph.Graph, int, sim.Config) (sim.Report, error)
		for strat, run := range map[string]runner{
			"LS": baseline.LS, "CNN-P": baseline.CNNP, "IL-Pipe": baseline.ILPipe,
		} {
			rep, err := run(g, batch, hw)
			if err != nil {
				return nil, err
			}
			row.ComputeUtil[strat] = rep.ComputeUtil
		}
		ad, err := cfg.runAD(g, batch, hw)
		if err != nil {
			return nil, err
		}
		row.ComputeUtil["AD"] = ad.ComputeUtil
		row.NoCOverheadAD = ad.NoCOverheadFraction()
		row.ReuseRatioAD = ad.OnChipReuseRatio

		rows = append(rows, row)
		cfg.printf("  %-14s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %7.1f%% %7.1f%%\n",
			name, 100*row.ComputeUtil["LS"], 100*row.ComputeUtil["CNN-P"],
			100*row.ComputeUtil["IL-Pipe"], 100*row.ComputeUtil["AD"],
			100*row.NoCOverheadAD, 100*row.ReuseRatioAD)
	}
	return rows, nil
}
