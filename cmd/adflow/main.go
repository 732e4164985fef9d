// Command adflow orchestrates one DNN workload on a configurable scalable
// accelerator using atomic dataflow, and optionally compares against the
// baseline strategies, lowers the solution it reports to per-engine
// instruction streams, or exports the workload itself.
//
// Usage:
//
//	adflow -model resnet50 -batch 1 -engines 8 -pes 16 -buffer 131072 \
//	       -dataflow kcp -mode dp -baselines
//	adflow -model tinyresnet -emit -engine-id 0 | head -50
//	adflow -model pnascell -dot          # Graphviz DOT on stdout
//	adflow -model pnascell -export       # JSON exchange document on stdout
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	af "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
)

// flags are adflow's command-line options. The solve's knobs land in
// opts and hw, which options validates and assembles.
type flags struct {
	opts                                 af.Options
	hw                                   af.HardwareConfig
	engines, engineID                    int
	model, modelFile, traceFile, metJSON string
	baselines, emit, dot, export         bool
}

// defineFlags registers adflow's flags on fs. The search and hardware
// knobs, their defaults and their bounds come from internal/knob, the
// table /solve reads too; the PE array and the clock default to
// DefaultHardware's.
func defineFlags(fs *flag.FlagSet) *flags {
	f := &flags{hw: af.DefaultHardware()}
	fs.StringVar(&f.model, "model", "resnet50", "workload: one of "+strings.Join(af.ModelNames(), ", "))
	fs.StringVar(&f.modelFile, "model-file", "", "load the workload from a JSON exchange document instead of the zoo")
	knob.Batch.Var(fs, &f.opts.Batch)
	knob.MeshW.Var(fs, &f.engines)
	fs.IntVar(&f.hw.Engine.PEx, "pes", f.hw.Engine.PEx, "PE array side per engine")
	knob.BufferBytes.Var(fs, &f.hw.Engine.BufferBytes)
	fs.Float64Var(&f.hw.Engine.FreqMHz, "freq", f.hw.Engine.FreqMHz, "engine clock in MHz")
	knob.Dataflow.Var(fs, &f.hw.Dataflow)
	knob.Mode.Var(fs, &f.opts.Mode)
	knob.SAIters.Var(fs, &f.opts.SAIters)
	knob.Seed.Var(fs, &f.opts.Seed)
	knob.Chains.Var(fs, &f.opts.Chains)
	fs.BoolVar(&f.baselines, "baselines", false, "also run LS, CNN-P, IL-Pipe and Rammer")
	fs.StringVar(&f.traceFile, "trace", "", "write a full-span trace (engine/NoC/DRAM lanes, Chrome trace-event JSON) of the AD execution to this file")
	fs.StringVar(&f.metJSON, "metrics-json", "", "write the run's metrics snapshot as JSON to this file")
	fs.BoolVar(&f.emit, "emit", false, "lower the solution to per-engine instruction streams, verify them and print their statistics")
	fs.IntVar(&f.engineID, "engine-id", -1, "with -emit: also list this engine's instruction stream")
	fs.BoolVar(&f.dot, "dot", false, "print the workload as a Graphviz DOT graph instead of solving it")
	fs.BoolVar(&f.export, "export", false, "print the workload's JSON exchange document instead of solving it")
	return f
}

// options validates the flags and builds the orchestration options. It
// rejects a knob outside its table bounds (no engines would panic, a huge
// mesh costs gigabytes, a batch below 1 would become 1), an engine to list
// outside the mesh, flag combinations that leave a flag ignored, and
// hardware that does not validate (a NaN or infinite -freq).
func (f *flags) options() (af.Options, error) {
	opts, hw := f.opts, f.hw
	if err := cmp.Or(knob.MeshW.Check(f.engines), knob.Batch.Check(opts.Batch), knob.Chains.Check(opts.Chains),
		knob.SAIters.Check(opts.SAIters), knob.BufferBytes.Check(hw.Engine.BufferBytes)); err != nil {
		return af.Options{}, err
	}
	switch id := f.engineID; {
	case id < -1 || id >= f.engines*f.engines:
		return af.Options{}, fmt.Errorf("-engine-id %d: want an engine of the %dx%d mesh, or -1 for none", id, f.engines, f.engines)
	case id >= 0 && !f.emit:
		return af.Options{}, fmt.Errorf("-engine-id %d needs -emit", id)
	}
	switch {
	case f.dot && f.export:
		return af.Options{}, fmt.Errorf("-dot and -export each print the workload: pick one")
	case (f.dot || f.export) && (f.emit || f.baselines || f.traceFile != "" || f.metJSON != ""):
		return af.Options{}, fmt.Errorf("-dot and -export print the workload without solving it: drop -emit, -baselines, -trace and -metrics-json")
	}
	hw.Mesh = af.NewMesh(f.engines, f.engines, hw.Mesh.LinkBytes)
	hw.Engine.PEy = hw.Engine.PEx
	if err := hw.Validate(); err != nil {
		return af.Options{}, err
	}
	opts.Hardware = &hw
	return opts, nil
}

// graph loads the workload: the -model-file document if set, else the
// zoo model.
func (f *flags) graph() (*af.Graph, error) {
	if f.modelFile == "" {
		return af.LoadModel(f.model)
	}
	mf, err := os.Open(f.modelFile)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	return af.ReadModel(mf)
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	opts, err := f.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adflow:", err)
		os.Exit(2)
	}
	if err := run(f, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adflow:", err)
		os.Exit(1)
	}
}

// run loads the workload and either prints it (-dot, -export) or solves
// it on opts and prints the outcome to w.
func run(f *flags, opts af.Options, w io.Writer) error {
	g, err := f.graph()
	if err != nil {
		return err
	}
	if f.export {
		return af.WriteModel(w, g)
	}
	if f.dot {
		_, err := io.WriteString(w, g.DOT())
		return err
	}
	fmt.Fprintf(w, "workload:  %s\n", g.Summary())
	hw := opts.Hardware
	fmt.Fprintf(w, "hardware:  %dx%d engines x %dx%d PEs, %d KB/engine, %s, %.0f MHz\n",
		hw.Mesh.W, hw.Mesh.H, hw.Engine.PEx, hw.Engine.PEy, hw.Engine.BufferBytes>>10, hw.Dataflow, hw.Engine.FreqMHz)

	var tf *os.File
	if f.traceFile != "" {
		if tf, err = os.Create(f.traceFile); err != nil {
			return err
		}
		defer tf.Close()
		opts.TraceWriter = tf
	}
	if f.metJSON != "" {
		hw.Metrics = af.NewMetrics()
	}
	sol, err := af.Orchestrate(g, opts)
	if err != nil {
		return err
	}
	if tf != nil {
		if err := tf.Close(); err != nil {
			return err
		}
		defer fmt.Fprintf(w, "trace written to %s (open in ui.perfetto.dev)\n", f.traceFile)
	}
	printReport(w, "atomic dataflow", sol.Report)
	fmt.Fprintf(w, "  atoms %d, rounds %d, atom-cycle CV %.3f, search %v\n",
		sol.Atoms, sol.Rounds, sol.AtomCycleCV, sol.SearchTime.Round(1e6))
	if f.metJSON != "" {
		mf, err := os.Create(f.metJSON)
		if err != nil {
			return err
		}
		err = hw.Metrics.WriteJSON(mf)
		if cerr := mf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics snapshot written to %s\n", f.metJSON)
	}

	if f.emit {
		p, err := sol.Lower()
		if err != nil {
			return err
		}
		st := p.Stats()
		fmt.Fprintf(w, "program:   %d instructions, %d computes, %d sends/%d recvs, "+
			"%0.3f MB loaded, %0.3f MB written back, %d rounds\n",
			st.Instructions, st.Computes, st.Sends, st.Recvs,
			float64(st.LoadBytes)/1e6, float64(st.WritebackBytes)/1e6, p.Rounds)
		if f.engineID >= 0 {
			if err := p.Dump(w, f.engineID); err != nil {
				return err
			}
		}
	}

	if f.baselines {
		for _, b := range []struct {
			name string
			run  func(*af.Graph, int, af.HardwareConfig) (af.Report, error)
		}{
			{"LS", af.RunLS}, {"CNN-P", af.RunCNNP},
			{"IL-Pipe", af.RunILPipe}, {"Rammer", af.RunRammer},
		} {
			rep, err := b.run(g, opts.Batch, *hw)
			if err != nil {
				return fmt.Errorf("%s: %w", b.name, err)
			}
			printReport(w, b.name, rep)
			fmt.Fprintf(w, "  AD speedup: %.2fx\n", rep.TimeMS/sol.Report.TimeMS)
		}
	}
	return nil
}

func printReport(w io.Writer, name string, r af.Report) {
	fmt.Fprintf(w, "%-16s %10.3f ms  util %5.1f%%  (compute-only %5.1f%%)\n",
		name+":", r.TimeMS, 100*r.PEUtilization, 100*r.ComputeUtil)
	fmt.Fprintf(w, "  cycles %d (compute %d, NoC-blocked %d, DRAM-blocked %d)\n",
		r.Cycles, r.ComputeCycles, r.NoCBlockedCycles, r.DRAMBlockedCycles)
	fmt.Fprintf(w, "  DRAM %0.1f MB read / %0.1f MB written, NoC %0.1f MB-hops, reuse %.1f%%\n",
		float64(r.DRAMReadBytes)/1e6, float64(r.DRAMWriteBytes)/1e6,
		float64(r.NoCByteHops)/1e6, 100*r.OnChipReuseRatio)
	fmt.Fprintf(w, "  energy %.2f mJ (MAC %.2f, SRAM %.2f, NoC %.2f, DRAM %.2f, static %.2f)\n",
		r.Energy.TotalMJ(), r.Energy.MAC/1e9, r.Energy.SRAM/1e9, r.Energy.NoC/1e9,
		r.Energy.DRAM/1e9, r.Energy.Static/1e9)
}
