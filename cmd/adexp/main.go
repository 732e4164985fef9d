// Command adexp regenerates the paper's evaluation tables and figures
// (Sec. V) on this repository's simulator.
//
// Usage:
//
//	adexp -exp table1                 # one experiment
//	adexp -exp fig8 -workloads resnet50,vgg19
//	adexp -exp all -fast              # everything, reduced workload set
//
// Experiment ids: fig2 fig5a fig5b fig8 fig9 fig10 fig11 fig12 fig13
// table1 table2 fpga all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/experiments"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/trace"
)

// fastWorkloads is the reduced set used with -fast: one representative of
// each structural class, keeping runtimes minutes instead of hours.
var fastWorkloads = []string{"vgg19", "resnet50", "inceptionv3", "efficientnet"}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (fig2..fig13, table1, table2, fpga, all)")
		workloads = flag.String("workloads", "", "comma-separated workload override")
		batch     = flag.Int("batch", 0, "batch-size override (0 = experiment default)")
		saIters   = flag.Int("sa-iters", 400, "SA iterations")
		seed      = flag.Int64("seed", 1, "search seed")
		chains    = flag.Int("chains", 1, "parallel annealing chains per search (deterministic for a fixed seed)")
		dp        = flag.Bool("dp", false, "use DP scheduling everywhere (slower; Fig 10 measures it explicitly)")
		fast      = flag.Bool("fast", false, "reduced workload set for quick runs")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		execTrace = flag.String("exectrace", "", "write a runtime/trace execution trace to this file (view with go tool trace)")
		metAddr   = flag.String("metrics-addr", "", "serve live /metrics, /metrics.json and /debug/pprof on this address (e.g. :8080)")
		metJSON   = flag.String("metrics-json", "", "write the final metrics snapshot as JSON to this file")
	)
	flag.Parse()
	if err := checkFlags(*batch, *chains, *saIters); err != nil {
		fmt.Fprintln(os.Stderr, "adexp:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adexp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "adexp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "adexp: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "adexp: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adexp: -exectrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "adexp: -exectrace: %v\n", err)
			os.Exit(1)
		}
		defer rtrace.Stop()
	}

	// One registry for the whole invocation: experiments accumulate into
	// shared counters, served live via -metrics-addr and snapshotted at
	// exit via -metrics-json.
	var reg *obs.Registry
	if *metAddr != "" || *metJSON != "" {
		reg = obs.New()
	}
	if *metAddr != "" {
		addr, _, err := obs.Serve(*metAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adexp: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "adexp: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}
	if *metJSON != "" {
		defer func() {
			f, err := os.Create(*metJSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "adexp: -metrics-json: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := reg.WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "adexp: -metrics-json: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	// One instrumented oracle for the whole invocation: each experiment
	// reports its own evaluation count below.
	orc := cost.Default()
	cfg := experiments.Config{
		Batch:   *batch,
		SAIters: *saIters,
		Seed:    *seed,
		Chains:  *chains,
		Mode:    schedule.Greedy,
		Out:     os.Stdout,
		Oracle:  orc,
		Metrics: reg,
	}
	if *dp {
		cfg.Mode = schedule.DP
	}
	if *workloads != "" {
		ws, err := parseWorkloads(*workloads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adexp: -workloads: %v\n", err)
			os.Exit(2)
		}
		cfg.Workloads = ws
	} else if *fast {
		cfg.Workloads = fastWorkloads
	}

	runners := map[string]func(experiments.Config) error{
		"fig2":   wrap(experiments.Fig2),
		"fig5a":  wrap(experiments.Fig5a),
		"fig5b":  func(c experiments.Config) error { _, err := experiments.Fig5b(c); return err },
		"fig8":   wrap(experiments.Fig8),
		"fig9":   wrap(experiments.Fig9),
		"fig10":  wrap(experiments.Fig10),
		"fig11":  wrap(experiments.Fig11),
		"fig12":  wrap(experiments.Fig12),
		"fig13":  wrap(experiments.Fig13),
		"table1": func(c experiments.Config) error { _, err := experiments.Table1(c); return err },
		"table2": func(c experiments.Config) error { _, err := experiments.Table2(c); return err },
		"fpga":   func(c experiments.Config) error { _, err := experiments.FPGA(c); return err },
		// Ablations beyond the paper's figures (see DESIGN.md).
		"topology":  wrap(experiments.Topologies),
		"mapping":   wrap(experiments.MappingAblation),
		"lookahead": wrap(experiments.LookaheadAblation),
		"flex":      wrap(experiments.FlexDataflow),
		"search":    wrap(experiments.SearchOverhead),
	}
	order := []string{"table1", "fig2", "fig5a", "fig5b", "fig8", "fig9",
		"fig10", "fig11", "table2", "fig12", "fig13", "fpga",
		"topology", "mapping", "lookahead", "flex", "search"}

	ids := []string{*exp}
	if *exp == "all" {
		ids = order
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "adexp: unknown experiment %q (have %s, all)\n",
				id, strings.Join(order, ", "))
			os.Exit(1)
		}
		start := time.Now()
		before := orc.Stats()
		if err := run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "adexp: %s: %v\n", id, err)
			os.Exit(1)
		}
		trace.WriteOracleStats(os.Stdout, id, orc.Stats().Sub(before))
		fmt.Printf("  [%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// checkFlags rejects numeric flags the experiments would otherwise
// silently replace with a default: a negative batch (0 keeps each
// experiment's own), and a chain count or iteration budget below 1.
func checkFlags(batch, chains, saIters int) error {
	if batch < 0 {
		return fmt.Errorf("-batch %d: want 0 (experiment default) or more", batch)
	}
	if chains < 1 {
		return fmt.Errorf("-chains %d: want at least 1", chains)
	}
	if saIters < 1 {
		return fmt.Errorf("-sa-iters %d: want at least 1", saIters)
	}
	return nil
}

// parseWorkloads splits a comma-separated -workloads list and rejects any
// name the model zoo does not have.
func parseWorkloads(list string) ([]string, error) {
	names := strings.Split(list, ",")
	known := models.Names()
	for _, w := range names {
		if !slices.Contains(known, w) {
			return nil, fmt.Errorf("unknown workload %q (have %s)", w, strings.Join(known, ", "))
		}
	}
	return names, nil
}

// wrap adapts a typed experiment runner to the common signature.
func wrap[T any](f func(experiments.Config) (T, error)) func(experiments.Config) error {
	return func(c experiments.Config) error {
		_, err := f(c)
		return err
	}
}
