// Command adflow orchestrates one DNN workload on a configurable scalable
// accelerator using atomic dataflow, and optionally compares against the
// baseline strategies.
//
// Usage:
//
//	adflow -model resnet50 -batch 1 -engines 8 -pes 16 -buffer 131072 \
//	       -dataflow kc -mode dp -baselines
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	af "github.com/atomic-dataflow/atomicflow"
)

func main() {
	var (
		model     = flag.String("model", "resnet50", "workload: one of "+strings.Join(af.ModelNames(), ", "))
		modelFile = flag.String("model-file", "", "load the workload from a JSON exchange document instead of the zoo")
		batch     = flag.Int("batch", 1, "inference batch size gathered into one atomic DAG")
		engines   = flag.Int("engines", 8, "engine mesh side (engines x engines grid)")
		pes       = flag.Int("pes", 16, "PE array side per engine")
		buffer    = flag.Int("buffer", 128<<10, "per-engine buffer bytes")
		freq      = flag.Float64("freq", 500, "engine clock in MHz")
		dataflow  = flag.String("dataflow", "kc", "engine dataflow: kc (NVDLA-style) or yx (ShiDianNao-style)")
		mode      = flag.String("mode", "greedy", "scheduler: dp or greedy")
		saIters   = flag.Int("sa-iters", 400, "simulated-annealing iterations for atom generation")
		seed      = flag.Int64("seed", 1, "search seed")
		chains    = flag.Int("chains", 1, "parallel annealing chains (deterministic for a fixed seed)")
		verifyDlt = flag.Bool("verify-delta", false, "cross-check every incremental SA move against a full recomputation (correctness harness; slower)")
		surr      = flag.Bool("surrogate", false, "filter candidate generation with the online-learned cost model (exact final cycles; search may differ slightly)")
		baselines = flag.Bool("baselines", false, "also run LS, CNN-P, IL-Pipe and Rammer")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON of the AD execution to this file")
		perfetto  = flag.String("perfetto", "", "write a full-span Perfetto trace (engine/NoC/DRAM lanes) to this file")
		metJSON   = flag.String("metrics-json", "", "write the run's metrics snapshot as JSON to this file")
		simPipe   = flag.Bool("sim-pipeline", true, "overlap round t+1 prep with round t timing in the simulator (bit-identical reports; see DESIGN.md \u00a713)")
	)
	flag.Parse()
	schedMode, df, err := checkFlags(*engines, *batch, *mode, *dataflow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adflow:", err)
		os.Exit(2)
	}

	var g *af.Graph
	if *modelFile != "" {
		f, ferr := os.Open(*modelFile)
		if ferr != nil {
			fatal(ferr)
		}
		g, err = af.ReadModel(f)
		f.Close()
	} else {
		g, err = af.LoadModel(*model)
	}
	if err != nil {
		fatal(err)
	}
	hw := af.DefaultHardware()
	hw.Pipeline = *simPipe
	hw.Mesh = af.NewMesh(*engines, *engines, hw.Mesh.LinkBytes)
	hw.Engine.PEx, hw.Engine.PEy = *pes, *pes
	hw.Engine.BufferBytes = *buffer
	hw.BufferBytes = int64(*buffer)
	hw.Engine.FreqMHz = *freq
	hw.Dataflow = df

	fmt.Printf("workload:  %s\n", g.Summary())
	fmt.Printf("hardware:  %dx%d engines x %dx%d PEs, %d KB/engine, %s, %.0f MHz\n",
		*engines, *engines, *pes, *pes, *buffer>>10, hw.Dataflow, *freq)

	opts := af.Options{
		Batch: *batch, Hardware: &hw, Mode: schedMode,
		SAIters: *saIters, Seed: *seed, Chains: *chains, VerifyDelta: *verifyDlt,
		Surrogate: *surr,
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.TraceWriter = f
		defer fmt.Printf("trace written to %s (open in chrome://tracing)\n", *traceFile)
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.PerfettoWriter = f
		defer fmt.Printf("full-span trace written to %s (open in ui.perfetto.dev)\n", *perfetto)
	}
	if *metJSON != "" {
		opts.Metrics = af.NewMetrics()
	}
	sol, err := af.Orchestrate(g, opts)
	if err != nil {
		fatal(err)
	}
	printReport("atomic dataflow", sol.Report)
	fmt.Printf("  atoms %d, rounds %d, atom-cycle CV %.3f, search %v\n",
		sol.Atoms, sol.Rounds, sol.AtomCycleCV, sol.SearchTime.Round(1e6))
	if *surr {
		ss := sol.SurrogateStats
		fmt.Printf("  surrogate: %d samples, %d refits, %d predictions, %d exact evals skipped, R2 %.4f, MAE %.1f\n",
			ss.Samples, ss.Refits, ss.Predictions, ss.ExactEvalsSkipped, ss.R2, ss.MAE)
	}
	if *metJSON != "" {
		f, err := os.Create(*metJSON)
		if err != nil {
			fatal(err)
		}
		if err := opts.Metrics.WriteJSON(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("metrics snapshot written to %s\n", *metJSON)
	}

	if *baselines {
		for _, b := range []struct {
			name string
			run  func(*af.Graph, int, af.HardwareConfig) (af.Report, error)
		}{
			{"LS", af.RunLS}, {"CNN-P", af.RunCNNP},
			{"IL-Pipe", af.RunILPipe}, {"Rammer", af.RunRammer},
		} {
			rep, err := b.run(g, *batch, hw)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", b.name, err))
			}
			printReport(b.name, rep)
			fmt.Printf("  AD speedup: %.2fx\n", rep.TimeMS/sol.Report.TimeMS)
		}
	}
}

// checkFlags rejects flag values the pipeline would panic on (a mesh
// without engines) or silently replace with a default (an unknown mode,
// a batch below 1), and resolves the scheduler mode and dataflow.
func checkFlags(engines, batch int, mode, dataflow string) (af.ScheduleMode, af.Dataflow, error) {
	if engines < 1 {
		return 0, 0, fmt.Errorf("-engines %d: want at least 1", engines)
	}
	if batch < 1 {
		return 0, 0, fmt.Errorf("-batch %d: want at least 1", batch)
	}
	var m af.ScheduleMode
	switch mode {
	case "dp":
		m = af.ModeDP
	case "greedy":
		m = af.ModeGreedy
	default:
		return 0, 0, fmt.Errorf("-mode %q: want dp or greedy", mode)
	}
	switch dataflow {
	case "kc":
		return m, af.KCPartition, nil
	case "yx":
		return m, af.YXPartition, nil
	}
	return 0, 0, fmt.Errorf("-dataflow %q: want kc or yx", dataflow)
}

func printReport(name string, r af.Report) {
	fmt.Printf("%-16s %10.3f ms  util %5.1f%%  (compute-only %5.1f%%)\n",
		name+":", r.TimeMS, 100*r.PEUtilization, 100*r.ComputeUtil)
	fmt.Printf("  cycles %d (compute %d, NoC-blocked %d, DRAM-blocked %d)\n",
		r.Cycles, r.ComputeCycles, r.NoCBlockedCycles, r.DRAMBlockedCycles)
	fmt.Printf("  DRAM %0.1f MB read / %0.1f MB written, NoC %0.1f MB-hops, reuse %.1f%%\n",
		float64(r.DRAMReadBytes)/1e6, float64(r.DRAMWriteBytes)/1e6,
		float64(r.NoCByteHops)/1e6, 100*r.OnChipReuseRatio)
	fmt.Printf("  energy %.2f mJ (MAC %.2f, SRAM %.2f, NoC %.2f, DRAM %.2f, static %.2f)\n",
		r.Energy.TotalMJ(), r.Energy.MAC/1e9, r.Energy.SRAM/1e9, r.Energy.NoC/1e9,
		r.Energy.DRAM/1e9, r.Energy.Static/1e9)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adflow:", err)
	os.Exit(1)
}
