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

// flags are adflow's command-line options.
type flags struct {
	model, modelFile, dataflow, mode, traceFile, metJSON *string
	batch, engines, pes, buffer, saIters, chains         *int
	freq                                                 *float64
	seed                                                 *int64
	baselines                                            *bool
}

// defineFlags registers adflow's flags on fs. The search defaults match
// the library's zero Options and /solve: DP scheduling, 600 SA
// iterations, seed 1, one chain. The hardware defaults are read from
// DefaultHardware.
func defineFlags(fs *flag.FlagSet) *flags {
	hw := af.DefaultHardware()
	return &flags{
		model:     fs.String("model", "resnet50", "workload: one of "+strings.Join(af.ModelNames(), ", ")),
		modelFile: fs.String("model-file", "", "load the workload from a JSON exchange document instead of the zoo"),
		batch:     fs.Int("batch", 1, "inference batch size gathered into one atomic DAG"),
		engines:   fs.Int("engines", hw.Mesh.W, "engine mesh side (engines x engines grid)"),
		pes:       fs.Int("pes", hw.Engine.PEx, "PE array side per engine"),
		buffer:    fs.Int("buffer", hw.Engine.BufferBytes, "per-engine buffer bytes"),
		freq:      fs.Float64("freq", hw.Engine.FreqMHz, "engine clock in MHz"),
		dataflow:  fs.String("dataflow", "kc", "engine dataflow: kc (NVDLA-style) or yx (ShiDianNao-style)"),
		mode:      fs.String("mode", "dp", "scheduler: dp or greedy"),
		saIters:   fs.Int("sa-iters", 600, "simulated-annealing iterations for atom generation"),
		seed:      fs.Int64("seed", 1, "search seed"),
		chains:    fs.Int("chains", 1, "parallel annealing chains (deterministic for a fixed seed)"),
		baselines: fs.Bool("baselines", false, "also run LS, CNN-P, IL-Pipe and Rammer"),
		traceFile: fs.String("trace", "", "write a full-span trace (engine/NoC/DRAM lanes, Chrome trace-event JSON) of the AD execution to this file"),
		metJSON:   fs.String("metrics-json", "", "write the run's metrics snapshot as JSON to this file"),
	}
}

// options validates the flags and builds the orchestration options,
// including the hardware model the flags describe, which must validate
// too (a NaN or infinite -freq is rejected there).
func (f *flags) options() (af.Options, error) {
	schedMode, df, err := checkFlags(*f.engines, *f.batch, *f.chains, *f.saIters, *f.mode, *f.dataflow)
	if err != nil {
		return af.Options{}, err
	}
	hw := af.DefaultHardware()
	hw.Mesh = af.NewMesh(*f.engines, *f.engines, hw.Mesh.LinkBytes)
	hw.Engine.PEx, hw.Engine.PEy = *f.pes, *f.pes
	hw.Engine.BufferBytes = *f.buffer
	hw.Engine.FreqMHz = *f.freq
	hw.Dataflow = df
	if err := hw.Validate(); err != nil {
		return af.Options{}, err
	}
	return af.Options{
		Batch: *f.batch, Hardware: &hw, Mode: schedMode,
		SAIters: *f.saIters, Seed: *f.seed, Chains: *f.chains,
	}, nil
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	opts, err := f.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adflow:", err)
		os.Exit(2)
	}
	hw := *opts.Hardware

	var g *af.Graph
	if *f.modelFile != "" {
		mf, ferr := os.Open(*f.modelFile)
		if ferr != nil {
			fatal(ferr)
		}
		g, err = af.ReadModel(mf)
		mf.Close()
	} else {
		g, err = af.LoadModel(*f.model)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload:  %s\n", g.Summary())
	fmt.Printf("hardware:  %dx%d engines x %dx%d PEs, %d KB/engine, %s, %.0f MHz\n",
		*f.engines, *f.engines, *f.pes, *f.pes, *f.buffer>>10, hw.Dataflow, *f.freq)

	if *f.traceFile != "" {
		tf, err := os.Create(*f.traceFile)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		opts.TraceWriter = tf
		defer fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", *f.traceFile)
	}
	if *f.metJSON != "" {
		opts.Metrics = af.NewMetrics()
	}
	sol, err := af.Orchestrate(g, opts)
	if err != nil {
		fatal(err)
	}
	printReport("atomic dataflow", sol.Report)
	fmt.Printf("  atoms %d, rounds %d, atom-cycle CV %.3f, search %v\n",
		sol.Atoms, sol.Rounds, sol.AtomCycleCV, sol.SearchTime.Round(1e6))
	if *f.metJSON != "" {
		mf, err := os.Create(*f.metJSON)
		if err != nil {
			fatal(err)
		}
		if err := opts.Metrics.WriteJSON(mf); err != nil {
			fatal(err)
		}
		mf.Close()
		fmt.Printf("metrics snapshot written to %s\n", *f.metJSON)
	}

	if *f.baselines {
		for _, b := range []struct {
			name string
			run  func(*af.Graph, int, af.HardwareConfig) (af.Report, error)
		}{
			{"LS", af.RunLS}, {"CNN-P", af.RunCNNP},
			{"IL-Pipe", af.RunILPipe}, {"Rammer", af.RunRammer},
		} {
			rep, err := b.run(g, *f.batch, hw)
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
// a batch, chain count or iteration budget below 1), and resolves the
// scheduler mode and dataflow.
func checkFlags(engines, batch, chains, saIters int, mode, dataflow string) (af.ScheduleMode, af.Dataflow, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"engines", engines}, {"batch", batch}, {"chains", chains}, {"sa-iters", saIters}} {
		if f.v < 1 {
			return 0, 0, fmt.Errorf("-%s %d: want at least 1", f.name, f.v)
		}
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
