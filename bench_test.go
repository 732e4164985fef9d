package atomicflow_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Sec. V). Each benchmark regenerates its experiment
// through internal/experiments and reports the headline quantity as a
// custom metric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. The workload set per bench is a representative subset (one
// per structural class) so the full sweep completes in minutes; run
// `cmd/adexp` for the complete Table-I workload list.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/experiments"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// benchCfg is the shared experiment configuration for benches.
func benchCfg(workloads ...string) experiments.Config {
	return experiments.Config{
		Workloads: workloads,
		SAIters:   300,
		Mode:      schedule.Greedy,
	}
}

// BenchmarkFig2_NaiveLSUtilization regenerates Fig. 2 (naive LS layer-wise
// PE utilization; paper averages 13.5-26.9%).
func BenchmarkFig2_NaiveLSUtilization(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, r := range rows {
			avg += r.Average
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(100*avg, "%util-LS-avg")
}

// BenchmarkFig5a_AtomCycleDistribution regenerates Fig. 5(a).
func BenchmarkFig5a_AtomCycleDistribution(b *testing.B) {
	var cv float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5a(benchCfg("resnet50"))
		if err != nil {
			b.Fatal(err)
		}
		cv = rows[0].CV
	}
	b.ReportMetric(cv, "atom-cycle-CV")
}

// BenchmarkFig5b_SAvsGA regenerates Fig. 5(b): the SA and GA searches
// themselves (this also measures the search overhead the paper reports
// for its Xeon host).
func BenchmarkFig5b_SAvsGA(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5b(benchCfg("resnet50"))
		if err != nil {
			b.Fatal(err)
		}
		if res.SAFinal > 0 {
			ratio = res.GAFinal / res.SAFinal
		}
	}
	b.ReportMetric(ratio, "GA/SA-final-var")
}

// BenchmarkFig8_Latency regenerates Fig. 8 (batch-1 latency, both
// dataflows) on one cascade and one residual workload, and reports AD's
// speedup over LS (paper: 1.45-2.30x over CNN-P which equals LS here).
func BenchmarkFig8_Latency(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(benchCfg("resnet50", "vgg19"))
		if err != nil {
			b.Fatal(err)
		}
		var ad, ls float64
		for _, r := range rows {
			if r.Workload == "resnet50" && r.Dataflow == "KC-P" {
				switch r.Strategy {
				case "AD":
					ad = r.Report.TimeMS
				case "LS":
					ls = r.Report.TimeMS
				}
			}
		}
		speedup = ls / ad
	}
	b.ReportMetric(speedup, "AD/LS-speedup")
}

// BenchmarkFig9_Throughput regenerates Fig. 9 (batch-20 throughput) and
// reports AD's gain over CNN-P (paper: 1.12-1.38x on KC-P).
func BenchmarkFig9_Throughput(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 20
		rows, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var ad, cp float64
		for _, r := range rows {
			if r.Workload == "resnet50" && r.Dataflow == "KC-P" {
				switch r.Strategy {
				case "AD":
					ad = r.Report.TimeMS
				case "CNN-P":
					cp = r.Report.TimeMS
				}
			}
		}
		gain = cp / ad
	}
	b.ReportMetric(gain, "AD/CNN-P-gain")
}

// BenchmarkFig10_Ablation regenerates Fig. 10 (per-stage improvements;
// paper: DP 1.17-1.42x, SA 1.06-1.21x, reuse 1.07-1.17x).
func BenchmarkFig10_Ablation(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 2
		rows, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = rows[0].TotalGain
	}
	b.ReportMetric(total, "total-stage-gain")
}

// BenchmarkFig11_Energy regenerates Fig. 11 (batch-20 energy) and reports
// LS/AD energy ratio (>1 means AD is more efficient).
func BenchmarkFig11_Energy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 8
		rows, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var ad, ls float64
		for _, r := range rows {
			if r.Workload == "resnet50" && r.Dataflow == "KC-P" {
				switch r.Strategy {
				case "AD":
					ad = r.Report.Energy.TotalMJ()
				case "LS":
					ls = r.Report.Energy.TotalMJ()
				}
			}
		}
		ratio = ls / ad
	}
	b.ReportMetric(ratio, "LS/AD-energy")
}

// BenchmarkFig12_EngineSweep regenerates Fig. 12 (U-shaped curves over
// engine counts at fixed total PEs/buffer) and reports the sweet-spot
// grid side (paper: 4x4-8x8).
func BenchmarkFig12_EngineSweep(b *testing.B) {
	var sweet float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 1
		points, err := experiments.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best := math.MaxFloat64
		for _, p := range points {
			if p.Workload == "resnet50" && p.Batch == 1 && p.TimeMS < best {
				best, sweet = p.TimeMS, float64(p.Grid)
			}
		}
	}
	b.ReportMetric(sweet, "sweet-spot-grid")
}

// BenchmarkFig13_BufferSweep regenerates Fig. 13 (latency vs per-engine
// buffer) and reports the 32KB/512KB latency ratio (diminishing returns).
func BenchmarkFig13_BufferSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig13(benchCfg("resnet50"))
		if err != nil {
			b.Fatal(err)
		}
		byKB := map[int]float64{}
		for _, p := range points {
			byKB[p.BufferKB] = p.TimeMS
		}
		ratio = byKB[32] / byKB[512]
	}
	b.ReportMetric(ratio, "32KB/512KB-latency")
}

// BenchmarkTable1_Characterization regenerates Table I.
func BenchmarkTable1_Characterization(b *testing.B) {
	var params float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		params = 0
		for _, r := range rows {
			params += r.ParamsMillions
		}
	}
	b.ReportMetric(params, "total-Mparams")
}

// BenchmarkTable2_Utilization regenerates Table II (PE utilization w/o
// memory delay, NoC overhead, reuse ratio) and reports AD's utilization
// (paper: 78.8-95.0%).
func BenchmarkTable2_Utilization(b *testing.B) {
	var adUtil float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 8
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		adUtil = rows[0].ComputeUtil["AD"]
	}
	b.ReportMetric(100*adUtil, "%util-AD")
}

// BenchmarkFPGA_Prototype regenerates the Sec. V-D prototype comparison
// and reports AD's fps gain over LS on ResNet-50 (paper: 1.43x).
func BenchmarkFPGA_Prototype(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Batch = 4
		rows, err := experiments.FPGA(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var ad, ls float64
		for _, r := range rows {
			if r.Workload == "resnet50" {
				switch r.Strategy {
				case "AD":
					ad = r.FPS
				case "LS":
					ls = r.FPS
				}
			}
		}
		gain = ad / ls
	}
	b.ReportMetric(gain, "AD/LS-fps")
}

// BenchmarkAblationTopology compares AD on mesh, torus and H-tree
// interconnects (the families named in Sec. IV-C) and reports the
// torus/mesh byte-hop ratio.
func BenchmarkAblationTopology(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 2
		rows, err := experiments.Topologies(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mesh, torus int64
		for _, r := range rows {
			switch r.Topology {
			case "mesh":
				mesh = r.ByteHops
			case "torus":
				torus = r.ByteHops
			}
		}
		if mesh > 0 {
			ratio = float64(torus) / float64(mesh)
		}
	}
	b.ReportMetric(ratio, "torus/mesh-byte-hops")
}

// BenchmarkAblationMapping isolates the TransferCost mapping stage
// (optimized vs naive placement) and reports the DRAM traffic saved.
func BenchmarkAblationMapping(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("resnet50")
		cfg.Batch = 2
		rows, err := experiments.MappingAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var naive, opt int64
		for _, r := range rows {
			if r.Optimized {
				opt = r.DRAMBytes
			} else {
				naive = r.DRAMBytes
			}
		}
		if naive > 0 {
			saved = 1 - float64(opt)/float64(naive)
		}
	}
	b.ReportMetric(100*saved, "%DRAM-saved")
}

// BenchmarkAblationLookahead sweeps the DP recursion depth of
// Algorithm 2 and reports the depth-3 over depth-1 makespan improvement.
func BenchmarkAblationLookahead(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("pnascell")
		cfg.Batch = 4
		rows, err := experiments.LookaheadAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(rows[0].MakespanLB) / float64(rows[2].MakespanLB)
	}
	b.ReportMetric(gain, "depth3/depth1-gain")
}

// BenchmarkDiscussionFlexArray compares AD on the planar and
// 3D-flexible arrays (paper Sec. VI-A) on the depthwise-heavy workload.
func BenchmarkDiscussionFlexArray(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FlexDataflow(benchCfg("efficientnet"))
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].TimeMS / rows[1].TimeMS // planar / flex
	}
	b.ReportMetric(ratio, "planar/flex-time")
}

// modelSchedule builds a model's atom DAG and Greedy schedule used by
// the hot-path benchmarks, outside the timed region.
func modelSchedule(b *testing.B, model string, cfg sim.Config) (*atom.DAG, *schedule.Schedule) {
	b.Helper()
	g, err := atomicflow.LoadModel(model)
	if err != nil {
		b.Fatal(err)
	}
	res := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{MaxIters: 300, Seed: 1})
	d, err := atom.Build(g, 1, res.Spec)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: cfg.Mesh.Engines(), Mode: schedule.Greedy,
		EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d, s
}

// BenchmarkSimRun measures one end-to-end sim.Run of ResNet-50 on the
// paper's 8x8 system — the inner loop of every figure and sweep. The
// schedule carries every atom's price, so the NoC, mapping and buffer
// hot paths dominate. Allocations per op are the regression guard for
// the zero-allocation flow-simulation arena.
func BenchmarkSimRun(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Oracle = cost.Default()
	d, s := modelSchedule(b, "resnet50", cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(d, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// frontEndSpec returns a zoo model and the partition spec of a
// fixed-seed SA search: the input of the two stages in front of the
// simulator.
func frontEndSpec(b *testing.B, cfg sim.Config, model string) (*atomicflow.Graph, atom.Spec) {
	b.Helper()
	g, err := atomicflow.LoadModel(model)
	if err != nil {
		b.Fatal(err)
	}
	return g, anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{MaxIters: 300, Seed: 1}).Spec
}

// frontEndBatch is the batch the front-end benchmarks build at: eight
// replicated samples, the batch-8 compile's atom and frontier sizes.
const frontEndBatch = 8

// BenchmarkAtomBuild measures atom.Build of ResNet-50 at batch 8: tiling
// and wiring one sample, then replicating it.
func BenchmarkAtomBuild(b *testing.B) {
	g, spec := frontEndSpec(b, sim.DefaultConfig(), "resnet50")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atom.Build(g, frontEndBatch, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBuild measures Algorithm 2 in DP mode on the
// ResNet-50 batch-8 atomic DAG. The shared oracle is warmed outside the
// timed region, so the frontier and the lookahead dominate.
func BenchmarkScheduleBuild(b *testing.B) { benchScheduleBuild(b, "resnet50") }

// BenchmarkScheduleBuildInception is BenchmarkScheduleBuild on the
// Inception-v3 batch-8 atomic DAG, whose wider frontier costs the
// lookahead about twice ResNet-50's.
func BenchmarkScheduleBuildInception(b *testing.B) { benchScheduleBuild(b, "inceptionv3") }

func benchScheduleBuild(b *testing.B, model string) {
	cfg := sim.DefaultConfig()
	g, spec := frontEndSpec(b, cfg, model)
	d, err := atom.Build(g, frontEndBatch, spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := schedule.Options{
		Engines: cfg.Mesh.Engines(), Mode: schedule.DP,
		EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow, Oracle: cost.Default(),
	}
	s, err := schedule.Build(d, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Build(d, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumRounds()), "rounds")
}

// BenchmarkSimRunB8 measures sim.Run of the ResNet-50 batch-8 DP
// schedule (the front-end benchmarks' spec): the batch compile's
// simulator stage, whose prep half — placement, buffer replay and flow
// order — is the critical path of the Round pipeline.
func BenchmarkSimRunB8(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Oracle = cost.Default()
	d, s := frontEndSchedule(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(d, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumRounds()), "rounds")
}

// frontEndSchedule builds the ResNet-50 batch-8 DP schedule of the
// front-end benchmarks' spec.
func frontEndSchedule(b *testing.B, cfg sim.Config) (*atom.DAG, *schedule.Schedule) {
	b.Helper()
	g, spec := frontEndSpec(b, cfg, "resnet50")
	d, err := atom.Build(g, frontEndBatch, spec)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: cfg.Mesh.Engines(), Mode: schedule.DP,
		EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow, Oracle: cost.Or(cfg.Oracle),
	})
	if err != nil {
		b.Fatal(err)
	}
	return d, s
}

// atomEngines maps every atom of a schedule to the engine it ran on: each
// atom runs in exactly one Round, so one table holds every Round's
// placement.
type atomEngines []int

func (p *atomEngines) Engine(id int) int { return (*p)[id] }

// BenchmarkPrepB8 runs the simulator's prep stage alone over
// BenchmarkSimRunB8's schedule: every Round's weight-aware placement and
// its buffer replay, which emits the Round's multicast groups ("place"),
// and the replay alone under the placements the first pass recorded
// ("replay"). Prep is the longer stage of the Round pipeline.
func BenchmarkPrepB8(b *testing.B) {
	cfg := sim.DefaultConfig()
	d, s := frontEndSchedule(b, cfg)
	n, capacity := cfg.Mesh.Engines(), int64(cfg.Engine.BufferBytes)
	man, err := buffer.New(d, s, n, capacity)
	if err != nil {
		b.Fatal(err)
	}
	mapper := mapping.New(cfg.Mesh, d)
	var placed mapping.Result
	var io buffer.RoundIO
	recorded := make(atomEngines, d.NumAtoms())
	prep := func(record bool) {
		if err := man.Reset(d, s, n, capacity); err != nil {
			b.Fatal(err)
		}
		mapper.Reset(cfg.Mesh, d)
		for t, round := range s.Rounds {
			mapper.PlaceRound(&placed, round.Atoms, man.Locate, man.HasWeights)
			if err := man.ExecuteRoundInto(t, &placed, &io); err != nil {
				b.Fatal(err)
			}
			if record {
				for _, id := range round.Atoms {
					recorded[id] = placed.Engine(id)
				}
			}
		}
	}
	prep(true)
	b.Run("place", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prep(false)
		}
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := man.Reset(d, s, n, capacity); err != nil {
				b.Fatal(err)
			}
			for t := range s.Rounds {
				if err := man.ExecuteRoundInto(t, &recorded, &io); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPlaceRound measures placing every Round of a ResNet-50
// schedule in order, each Round locating its inputs on the engines the
// previous Round placed them on: the permutation search of the mapping
// stage over Rounds of every size, and the cost-row reuse of atoms that
// share a DAG row with their group's previous atom.
func BenchmarkPlaceRound(b *testing.B) {
	cfg := sim.DefaultConfig()
	d, s := modelSchedule(b, "resnet50", cfg)
	mapper := mapping.New(cfg.Mesh, d)
	// A Round locates only the inputs its predecessor placed. The
	// locator is bound once; a closure per Round would allocate.
	roundOf := make([]int, d.NumAtoms())
	for r, round := range s.Rounds {
		for _, id := range round.Atoms {
			roundOf[id] = r
		}
	}
	var res mapping.Result
	cur := 0
	prev := func(id int) int {
		if roundOf[id] != cur-1 {
			return -1
		}
		return res.Engine(id)
	}
	placeAll := func() {
		for r, round := range s.Rounds {
			cur = r
			mapper.PlaceRound(&res, round.Atoms, prev, nil)
		}
	}
	placeAll() // size the Result's slices
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placeAll()
	}
	b.ReportMetric(float64(s.NumRounds()), "rounds/op")
}

// benchSink keeps the compiler from eliding oracle evaluations.
var benchSink engine.Cost

// BenchmarkCostOracle compares pricing the ResNet-50 atom set through the
// raw engine model against a cost.Memo that already holds every entry.
// The atom set is what a schedule prices every run: thousands of atoms
// drawn from a few dozen distinct tasks. The memo variant reports the
// first-pass hit rate as a custom metric. Even at that hit rate the
// direct path is the faster one, which is why production stacks call the
// engine model directly (DESIGN §3).
func BenchmarkCostOracle(b *testing.B) {
	g, err := atomicflow.LoadModel("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	hw := atomicflow.DefaultHardware()
	res := anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{MaxIters: 300, Seed: 1})
	d, err := atom.Build(g, 1, res.Spec)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []engine.Task
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			tasks = append(tasks, a.Task)
		}
	}

	b.Run("direct", func(b *testing.B) {
		orc := cost.Direct{}
		for i := 0; i < b.N; i++ {
			for _, t := range tasks {
				benchSink = orc.Evaluate(hw.Engine, hw.Dataflow, t)
			}
		}
		b.ReportMetric(float64(len(tasks)), "atoms/op")
	})
	b.Run("memo", func(b *testing.B) {
		// A fresh cache for the hit-rate metric; the timed loop then
		// reflects the steady state (everything cached after pass one).
		fresh := cost.NewMemo(cost.Direct{})
		for _, t := range tasks {
			benchSink = fresh.Evaluate(hw.Engine, hw.Dataflow, t)
		}
		firstPass := fresh.Stats()

		orc := cost.NewMemo(cost.Direct{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range tasks {
				benchSink = orc.Evaluate(hw.Engine, hw.Dataflow, t)
			}
		}
		hitRate := float64(firstPass.Hits) / float64(firstPass.Hits+firstPass.Misses)
		b.ReportMetric(100*hitRate, "%hit-rate-first-pass")
		b.ReportMetric(float64(len(tasks)), "atoms/op")
	})
}

// BenchmarkSearchOverhead_ResNet50 measures the compile-time search cost
// of the full AD pipeline (paper: 66.5 s for ResNet-50 on a Xeon E5-2620;
// this implementation is orders of magnitude faster because the Cycle()
// oracle is a closed-form model rather than an external tool).
func BenchmarkSearchOverhead_ResNet50(b *testing.B) {
	g, err := atomicflow.LoadModel("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := atomicflow.Orchestrate(g, atomicflow.Options{Batch: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchOverhead_InceptionV3 is the paper's 406.9 s point.
func BenchmarkSearchOverhead_InceptionV3(b *testing.B) {
	g, err := atomicflow.LoadModel("inceptionv3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := atomicflow.Orchestrate(g, atomicflow.Options{Batch: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSetup measures Algorithm 1 as a cold compile runs it:
// anneal.SA at default knobs on ResNet-50 and Inception-v3 (KC-P), each
// iteration with a fresh oracle. Candidate generation with its exact
// evaluations is set-up work on every search, and it outweighs the
// annealing moves. Each distinct layer's candidates are priced straight
// into one list sized for its whole enumeration, so allocs/op counts
// lists, not appends: about 800 per op, 1.7 MB.
func BenchmarkSearchSetup(b *testing.B) {
	var gs []*atomicflow.Graph
	for _, name := range []string{"resnet50", "inceptionv3"} {
		g, err := atomicflow.LoadModel(name)
		if err != nil {
			b.Fatal(err)
		}
		gs = append(gs, g)
	}
	cfg := engine.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			anneal.SA(g, cfg, engine.KCPartition, anneal.Options{Oracle: cost.Default()})
		}
	}
}

// BenchmarkAnnealChains measures the SA search at portfolio widths 1, 2,
// 4 and 8 on a mid-size workload. The iteration budget is fixed, so the
// portfolio splits the same Metropolis work across chains: on a K-core
// runner the K-chain point should approach a K-fold wall-clock reduction
// over /1 while final-cv (the solution quality) stays comparable. Each
// iteration prices atoms through a fresh memo so every width pays the
// same cold-oracle cost.
func BenchmarkAnnealChains(b *testing.B) {
	g, err := atomicflow.LoadModel("inceptionv3")
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Default()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			var cv float64
			for i := 0; i < b.N; i++ {
				res := anneal.SA(g, cfg, engine.KCPartition, anneal.Options{
					MaxIters: 4000, Seed: 1, Chains: k,
					Oracle: cost.NewMemo(cost.Direct{}),
				})
				cv = res.FinalCV
			}
			b.ReportMetric(cv, "final-cv")
		})
	}
}

// BenchmarkAnnealDeep measures the SA search alone on the synthetic
// 1000+-compute-layer workload — the stress case for move scoring.
// iters/sec is the headline metric: re-picking every layer per move
// decays linearly with graph depth; scoring picks once per distinct
// candidate list (15 for the chain's 1,026 layers).
func BenchmarkAnnealDeep(b *testing.B) {
	g, err := atomicflow.LoadModel("deepchain1k")
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Default()
	orc := cost.NewMemo(cost.Direct{})
	// Warm the oracle so candidate pricing is out of the measurement.
	anneal.SA(g, cfg, engine.KCPartition, anneal.Options{MaxIters: 1, Seed: 1, Oracle: orc})
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := anneal.SA(g, cfg, engine.KCPartition, anneal.Options{
			MaxIters: 2000, Seed: 1, Oracle: orc,
		})
		iters = res.Iters
	}
	b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "iters/sec")
}

// BenchmarkOrchestrateScaling exercises the pipeline end to end on the
// deepest workload (ResNet-1001) to demonstrate scalability of the
// greedy scheduling path.
func BenchmarkOrchestrateScaling(b *testing.B) {
	g, err := atomicflow.LoadModel("resnet152")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := atomicflow.Orchestrate(g, atomicflow.Options{Batch: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunDeep measures sim.Run on the synthetic 1000-layer
// chain: ~1 atom per Round, thousands of Rounds. This is the pipeline's
// worst case (no intra-Round work to overlap, maximal per-Round fixed
// cost), so it guards the "not slower at GOMAXPROCS=1" half of the
// pipelining contract the same way BenchmarkSimRun guards the speedup.
func BenchmarkSimRunDeep(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Oracle = cost.Default()
	d, s := modelSchedule(b, "deepchain1k", cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(d, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumRounds()), "rounds")
}

// BenchmarkSimRunPipelined runs the ResNet-50 simulation with the
// two-stage pipeline pinned at GOMAXPROCS 1 and 4. The /1 point shows
// the pipeline's scheduling overhead when prep and timing must share a
// core; the /4 point is where prep(t+1) genuinely overlaps time(t).
func BenchmarkSimRunPipelined(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Oracle = cost.Default()
	d, s := modelSchedule(b, "resnet50", cfg)
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprint(procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(d, s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCalibSink keeps the calibration kernel from being elided.
var benchCalibSink uint64

// BenchmarkCalibration is the machine-speed yardstick of the bench
// regression gate (cmd/benchgate): a fixed pure-integer xorshift kernel
// with no allocations, no memory traffic and no dependence on this
// repository's code. The gate scales every gated benchmark's baseline
// ns/op by the calibration ratio between the recording machine and the
// current one, so the >10% regression threshold tracks real code
// regressions instead of runner hardware differences.
func BenchmarkCalibration(b *testing.B) {
	acc := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1<<14; j++ {
			acc ^= acc << 13
			acc ^= acc >> 7
			acc ^= acc << 17
		}
	}
	benchCalibSink = acc
}
