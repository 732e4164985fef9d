package experiments

import (
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/baseline"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Fig2Row is the per-workload result of the Fig. 2 experiment: layer-wise
// PE utilization of the naive LS strategy (each layer evenly partitioned
// across all engines), communication excluded.
type Fig2Row struct {
	Workload string
	PerLayer []float64
	Average  float64
}

// Fig2 reproduces the paper's Fig. 2 (paper averages: ResNet-50 26.91%,
// Inception-v3 17.48%, NasNet 18.34%, EfficientNet 13.53%).
func Fig2(cfg Config) ([]Fig2Row, error) {
	hw := cfg.hw()
	names := cfg.workloads(models.Fig2Workloads)
	rows := make([]Fig2Row, len(names))
	forEach(len(names), func(i int) {
		g := mustModel(names[i])
		perLayer, avg := baseline.LayerUtilization(hw.Oracle, g, hw.Engine, hw.Dataflow, hw.Mesh.Engines())
		rows[i] = Fig2Row{Workload: names[i], PerLayer: perLayer, Average: avg}
	})
	cfg.printf("Fig 2 — naive LS layer-wise PE utilization (no communication)\n")
	for _, row := range rows {
		cfg.printf("  %-14s avg %.2f%% over %d layers\n", row.Workload, 100*row.Average, len(row.PerLayer))
	}
	return rows, nil
}

// Fig5aRow holds the atom-cycle histogram of one workload after SA.
type Fig5aRow struct {
	Workload  string
	MeanCycle float64
	CV        float64
	// Histogram buckets cycles/mean into 0.25-wide bins; Histogram[i]
	// counts atoms in [0.25i, 0.25(i+1)) x mean.
	Histogram map[int]int
}

// Fig5a reproduces the atom execution-cycle distributions of Fig. 5(a):
// after SA, most atom cycles concentrate in one region.
func Fig5a(cfg Config) ([]Fig5aRow, error) {
	hw := cfg.hw()
	names := cfg.workloads(models.Fig2Workloads)
	rows := make([]Fig5aRow, len(names))
	forEach(len(names), func(i int) {
		g := mustModel(names[i])
		res := anneal.SA(g, hw.Engine, hw.Dataflow,
			cfg.search().anneal(hw))
		row := Fig5aRow{Workload: names[i], MeanCycle: res.MeanCycle, CV: res.FinalCV,
			Histogram: make(map[int]int)}
		for lid, cyc := range res.LayerCycles {
			tiles := res.Spec[lid].Tiles(g.Layer(lid))
			bin := int(float64(cyc) / res.MeanCycle / 0.25)
			row.Histogram[bin] += tiles
		}
		rows[i] = row
	})
	cfg.printf("Fig 5a — distribution of atom execution cycles after SA\n")
	for _, row := range rows {
		cfg.printf("  %-14s mean %.0f cycles, CV %.3f, histogram %v\n",
			row.Workload, row.MeanCycle, row.CV, row.Histogram)
	}
	return rows, nil
}

// Fig5bResult holds the SA and GA convergence traces.
type Fig5bResult struct {
	Workload         string
	SATrace, GATrace []float64
	SAFinal, GAFinal float64
	SAIters, GAIters int
}

// Fig5b reproduces Fig. 5(b): SA converges faster and to a lower variance
// than GA; GA's trace shows mutation-driven rises.
func Fig5b(cfg Config) (Fig5bResult, error) {
	hw := cfg.hw()
	name := "resnet50"
	if w := cfg.workloads(nil); len(w) > 0 {
		name = w[0]
	}
	g := mustModel(name)
	opt := cfg.search().anneal(hw)
	sa := anneal.SA(g, hw.Engine, hw.Dataflow, opt)
	ga := anneal.GA(g, hw.Engine, hw.Dataflow, opt)
	res := Fig5bResult{
		Workload: name,
		SATrace:  sa.Trace, GATrace: ga.Trace,
		SAFinal: sa.FinalVar, GAFinal: ga.FinalVar,
		SAIters: sa.Iters, GAIters: ga.Iters,
	}
	cfg.printf("Fig 5b — convergence on %s: SA final Var %.3g (%d iters), GA final Var %.3g (%d gens)\n",
		name, res.SAFinal, res.SAIters, res.GAFinal, res.GAIters)
	return res, nil
}

// StrategyResult is one (workload, strategy) cell of Figs. 8, 9 and 11.
type StrategyResult struct {
	Workload string
	Strategy string
	Dataflow string
	Report   sim.Report
}

// latencyStrategies lists the Fig. 8 competitors. CNN-P is omitted because
// at batch 1 it degenerates to LS, exactly as in the paper.
var latencyStrategies = []string{"LS", "IL-Pipe", "AD"}

// Fig8 reproduces the inference-latency comparison (batch 1) under both
// KC-Partition and YX-Partition. Paper: AD beats CNN-P(=LS) by 1.45-2.30x
// and IL-Pipe by 1.42-3.78x.
func Fig8(cfg Config) ([]StrategyResult, error) {
	return latencyThroughput(cfg, cfg.batch(1), latencyStrategies, "Fig 8 — inference latency (batch=1)")
}

// throughputStrategies lists the Fig. 9/11 competitors.
var throughputStrategies = []string{"LS", "CNN-P", "IL-Pipe", "AD"}

// Fig9 reproduces the throughput comparison at batch 20. Paper: AD beats
// CNN-P by 1.12-1.38x (KC-P) and 1.08-1.42x (YX-P); CNN-P exceeds LS.
func Fig9(cfg Config) ([]StrategyResult, error) {
	return latencyThroughput(cfg, cfg.batch(20), throughputStrategies, "Fig 9 — throughput (batch=20)")
}

// Fig11 reproduces the energy comparison at batch 20 (paper: IL-Pipe and
// AD are the most energy-efficient strategies). It reuses the Fig. 9 runs
// and reports the energy side of the same reports.
func Fig11(cfg Config) ([]StrategyResult, error) {
	rows, err := latencyThroughput(cfg, cfg.batch(20), throughputStrategies, "Fig 11 — energy (batch=20)")
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r.Dataflow != engine.KCPartition.String() {
			continue
		}
		cfg.printf("  %-14s %-8s %8.2f mJ (MAC %.1f SRAM %.1f NoC %.1f DRAM %.1f static %.1f)\n",
			r.Workload, r.Strategy, r.Report.Energy.TotalMJ(),
			r.Report.Energy.MAC/1e9, r.Report.Energy.SRAM/1e9, r.Report.Energy.NoC/1e9,
			r.Report.Energy.DRAM/1e9, r.Report.Energy.Static/1e9)
	}
	return rows, nil
}

func latencyThroughput(cfg Config, batch int, strategies []string, title string) ([]StrategyResult, error) {
	hw := cfg.hw()
	names := cfg.workloads(models.PaperWorkloads)

	// One sweep point per (dataflow, workload); the strategy list runs
	// sequentially inside a point.
	type point struct {
		df   engine.Dataflow
		name string
	}
	var points []point
	for _, df := range dataflows {
		for _, name := range names {
			points = append(points, point{df, name})
		}
	}
	rows := make([][]StrategyResult, len(points))
	errs := make([]error, len(points))
	forEach(len(points), func(i int) {
		p := points[i]
		pointHW := hw
		pointHW.Dataflow = p.df
		g := mustModel(p.name)
		out := make([]StrategyResult, 0, len(strategies))
		for _, strat := range strategies {
			var rep sim.Report
			var err error
			switch strat {
			case "LS":
				rep, err = baseline.LS(g, batch, pointHW)
			case "CNN-P":
				rep, err = baseline.CNNP(g, batch, pointHW)
			case "IL-Pipe":
				rep, err = baseline.ILPipe(g, batch, pointHW)
			case "AD":
				rep, err = runAD(g, batch, pointHW, cfg.Mode, cfg.search())
			default:
				err = fmt.Errorf("unknown strategy %q", strat)
			}
			if err != nil {
				errs[i] = fmt.Errorf("%s/%s/%v: %w", p.name, strat, p.df, err)
				return
			}
			out = append(out, StrategyResult{
				Workload: p.name, Strategy: strat, Dataflow: p.df.String(), Report: rep,
			})
		}
		rows[i] = out
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	cfg.printf("%s\n", title)
	var flat []StrategyResult
	for i, group := range rows {
		for _, r := range group {
			flat = append(flat, r)
			cfg.printf("  %-5s %-14s %-8s %10.3f ms  util %5.1f%%  %8.1f mJ\n",
				points[i].df, r.Workload, r.Strategy, r.Report.TimeMS,
				100*r.Report.PEUtilization, r.Report.Energy.TotalMJ())
		}
	}
	return flat, nil
}

// Fig10Row is one workload's per-stage improvement breakdown.
type Fig10Row struct {
	Workload   string
	BaseMS     float64 // even-split atoms, layer-wise order, no reuse machinery
	SAGain     float64 // from SA atomic tensor generation (Sec. IV-A)
	DPGain     float64 // from DP-based atomic DAG scheduling (Sec. IV-B)
	ReuseGain  float64 // from mapping + buffering (Sec. IV-C)
	CombinedMS float64
	TotalGain  float64
}

// Fig10 reproduces the per-stage ablation by enabling the paper's three
// techniques cumulatively:
//
//	T0  even-split atoms, strict layer-wise order, no reuse machinery
//	T1  + SA atomic tensor generation (Algorithm 1)
//	T2  + DP graph-level scheduling   (Algorithm 2: flexible atom order)
//	T3  + mapping and buffering       (Algorithm 3: on-chip reuse)
//
// Paper: DP scheduling contributes 1.17-1.42x, SA atom generation
// 1.06-1.21x, on-chip data reuse 1.07-1.17x.
func Fig10(cfg Config) ([]Fig10Row, error) {
	hw := cfg.hw()
	batch := cfg.batch(4)
	names := cfg.workloads(models.PaperWorkloads)
	rows := make([]Fig10Row, len(names))
	errs := make([]error, len(names))
	forEach(len(names), func(i int) {
		name := names[i]
		g := mustModel(name)

		noReuse := hw
		noReuse.BufferBytes = 1
		noReuse.NaiveMapping = true

		// T0: even-split atoms in strict layer order, no reuse.
		t0, err := runLayerOrdered(g, batch, noReuse, nil, cfg)
		if err != nil {
			errs[i] = err
			return
		}
		// T1: SA atoms, still layer-ordered, no reuse.
		sa := anneal.SA(g, hw.Engine, hw.Dataflow,
			cfg.search().anneal(hw))
		t1, err := runLayerOrdered(g, batch, noReuse, sa.Spec, cfg)
		if err != nil {
			errs[i] = err
			return
		}
		// T2: + mapping and buffering (on-chip reuse), still layer order.
		t2, err := runLayerOrdered(g, batch, hw, sa.Spec, cfg)
		if err != nil {
			errs[i] = err
			return
		}
		// T3: + graph-level DAG scheduling (full atomic dataflow) —
		// flexible ordering both packs Rounds better and tightens reuse
		// windows (atoms are consumed sooner, evicted less).
		t3, err := runAD(g, batch, hw, cfg.Mode, cfg.search())
		if err != nil {
			errs[i] = err
			return
		}

		rows[i] = Fig10Row{
			Workload:   name,
			BaseMS:     t0.TimeMS,
			SAGain:     speedup(t0.TimeMS, t1.TimeMS),
			ReuseGain:  speedup(t1.TimeMS, t2.TimeMS),
			DPGain:     speedup(t2.TimeMS, t3.TimeMS),
			CombinedMS: t3.TimeMS,
			TotalGain:  speedup(t0.TimeMS, t3.TimeMS),
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cfg.printf("Fig 10 — per-stage performance improvements (batch=%d)\n", batch)
	for _, row := range rows {
		cfg.printf("  %-14s SA %5.2fx  DP %5.2fx  reuse %5.2fx  total %5.2fx\n",
			row.Workload, row.SAGain, row.DPGain, row.ReuseGain, row.TotalGain)
	}
	return rows, nil
}

// runLayerOrdered simulates atoms (spec nil = even split) executed in
// strict layer-wise order — the pre-graph-scheduling baseline of the
// Fig. 10 ablation.
func runLayerOrdered(g *graph.Graph, batch int, hw sim.Config, spec atom.Spec, cfg Config) (sim.Report, error) {
	if spec == nil {
		return baseline.Rammer(g, batch, hw)
	}
	d, err := atom.Build(g, batch, spec)
	if err != nil {
		return sim.Report{}, err
	}
	n := hw.Mesh.Engines()
	var rounds [][]int
	for _, lid := range g.Topo() {
		l := g.Layer(lid)
		if l.Kind == graph.OpInput || l.Kind == graph.OpConcat {
			continue
		}
		for smp := 0; smp < batch; smp++ {
			ids := d.AtomsOf(smp, lid)
			for off := 0; off < len(ids); off += n {
				end := off + n
				if end > len(ids) {
					end = len(ids)
				}
				rounds = append(rounds, ids[off:end])
			}
		}
	}
	s, err := schedule.FromRounds(d, rounds, schedule.Options{
		Engines: n, EngineCfg: hw.Engine, Dataflow: hw.Dataflow, Oracle: hw.Oracle,
	})
	if err != nil {
		return sim.Report{}, err
	}
	return sim.Run(d, s, hw)
}
