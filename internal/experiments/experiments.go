// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V). Each Fig*/Table* function runs the corresponding
// workloads through the atomic-dataflow pipeline and the baselines on the
// paper's hardware configuration, returning structured results and
// printing the same rows/series the paper reports.
//
// Absolute numbers come from this repository's simulator rather than the
// authors' testbed; the quantities to compare are the shapes — who wins,
// by what factor, where crossovers and sweet spots fall. EXPERIMENTS.md
// records paper-vs-measured for each experiment.
package experiments

import (
	"fmt"
	"io"

	"github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Config tunes an experiment run.
type Config struct {
	// Workloads overrides the experiment's default model list (the
	// paper's). Fast mode for CI uses a small subset.
	Workloads []string
	// Batch overrides the experiment's batch size where meaningful.
	Batch int
	// SAIters bounds atom generation (default DefaultSAIters).
	SAIters int
	// Seed fixes the SA RNG.
	Seed int64
	// Chains is the annealing portfolio width threaded into every SA
	// search of the experiment (default 1 — the paper's sequential
	// Algorithm 1). Wider portfolios split the same SAIters budget, so
	// they change the search rather than speed it up.
	Chains int
	// Mode selects the scheduling effort (zero is DP; adexp passes
	// Greedy, since Fig10 measures the DP gain explicitly).
	Mode schedule.Mode
	// Out receives the printed rows (nil = discard).
	Out io.Writer
	// Oracle prices atoms across the whole experiment run (default: the
	// engine model directly). cmd/adexp passes one instrumented oracle
	// for the entire invocation and prints its evaluations per
	// experiment.
	Oracle cost.Oracle
	// Metrics, when non-nil, collects counters and histograms across
	// every simulation of the experiment (see internal/obs). cmd/adexp
	// wires one registry for the whole invocation and can serve it live
	// (-metrics-addr) or dump a snapshot (-metrics-json).
	Metrics *obs.Registry
}

// hw assembles the paper's hardware model (sim.DefaultConfig) with the
// run's cost oracle and metrics installed.
func (c Config) hw() sim.Config {
	hw := sim.DefaultConfig()
	hw.Oracle = cost.Or(c.Oracle)
	hw.Metrics = c.Metrics
	return hw
}

func (c Config) workloads(def []string) []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return def
}

func (c Config) batch(def int) int {
	if c.Batch > 0 {
		return c.Batch
	}
	return def
}

// DefaultSAIters is the experiments' iteration budget: enough to converge
// on every paper workload, and below the library's to keep sweeps short.
const DefaultSAIters = 400

func (c Config) saIters() int {
	if c.SAIters > 0 {
		return c.SAIters
	}
	return DefaultSAIters
}

// annealOpts is the run's SA search on a hardware model, for the
// experiments that run Algorithm 1 outside the full pipeline (oracle and
// metrics ride along from hw).
func (c Config) annealOpts(hw sim.Config) anneal.Options {
	return anneal.Options{
		MaxIters: c.saIters(),
		Seed:     c.Seed,
		Chains:   c.Chains,
		Oracle:   hw.Oracle,
		Metrics:  hw.Metrics,
	}
}

func (c Config) out() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return io.Discard
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.out(), format, args...)
}

// orchestrate solves one atomic-dataflow point with the run's search
// knobs through atomicflow.Orchestrate; hw carries the run's oracle and
// metrics registry into every stage.
func (c Config) orchestrate(g *graph.Graph, batch int, hw sim.Config) (*atomicflow.Solution, error) {
	return atomicflow.Orchestrate(g, atomicflow.Options{
		Batch:    batch,
		Hardware: &hw,
		Mode:     c.Mode,
		SAIters:  c.saIters(),
		Seed:     c.Seed,
		Chains:   c.Chains,
	})
}

// runAD returns the simulated Report of one atomic-dataflow point.
func (c Config) runAD(g *graph.Graph, batch int, hw sim.Config) (sim.Report, error) {
	sol, err := c.orchestrate(g, batch, hw)
	if err != nil {
		return sim.Report{}, err
	}
	return sol.Report, nil
}

// mustModel panics on unknown names (experiment model lists are static).
func mustModel(name string) *graph.Graph { return models.MustBuild(name) }

// speedup formats a/b as a ratio string.
func speedup(base, opt float64) float64 {
	if opt == 0 {
		return 0
	}
	return base / opt
}

// dataflows enumerated by the latency/throughput figures.
var dataflows = []engine.Dataflow{engine.KCPartition, engine.YXPartition}
