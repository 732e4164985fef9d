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
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
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
	// SAIters bounds atom generation (default 400 — enough to converge
	// on every paper workload).
	SAIters int
	// Seed fixes the SA RNG.
	Seed int64
	// Chains is the annealing portfolio width threaded into every SA
	// search of the experiment (default 1 — the paper's sequential
	// Algorithm 1). Wider portfolios split the same SAIters budget, so
	// they change the search rather than speed it up.
	Chains int
	// Mode selects the scheduling effort (default Greedy: the DP gain is
	// measured explicitly by Fig10).
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

func (c Config) saIters() int {
	if c.SAIters > 0 {
		return c.SAIters
	}
	return 400
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c Config) chains() int {
	if c.Chains > 1 {
		return c.Chains
	}
	return 1
}

// searchOpts bundles the SA parameters threaded through every experiment
// pipeline — one value to pass instead of a trail of positional ints.
type searchOpts struct {
	saIters int
	seed    int64
	chains  int
}

func (c Config) search() searchOpts {
	return searchOpts{
		saIters: c.saIters(),
		seed:    c.seed(),
		chains:  c.chains(),
	}
}

// anneal expands the search parameters into the full SA option set on a
// hardware model (oracle and metrics ride along from hw).
func (so searchOpts) anneal(hw sim.Config) anneal.Options {
	return anneal.Options{
		MaxIters: so.saIters,
		Seed:     so.seed,
		Chains:   so.chains,
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

// adPipeline holds the composed atomic-dataflow artifacts for one
// (workload, batch, hardware) point.
type adPipeline struct {
	graph *graph.Graph
	sa    anneal.Result
	dag   *atom.DAG
	sched *schedule.Schedule
}

// buildAD runs SA + DAG + scheduling for a workload. The hardware model's
// oracle is threaded through every stage, so one instrumented oracle
// counts the evaluations of candidate generation and scheduling.
func buildAD(g *graph.Graph, batch int, hw sim.Config, mode schedule.Mode, so searchOpts) (*adPipeline, error) {
	sa := anneal.SA(g, hw.Engine, hw.Dataflow, so.anneal(hw))
	d, err := atom.Build(g, batch, sa.Spec)
	if err != nil {
		return nil, err
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: hw.Mesh.Engines(), Mode: mode,
		EngineCfg: hw.Engine, Dataflow: hw.Dataflow, Oracle: hw.Oracle,
	})
	if err != nil {
		return nil, err
	}
	return &adPipeline{graph: g, sa: sa, dag: d, sched: s}, nil
}

// buildADWithLookahead is buildAD forcing DP mode at an explicit depth.
func buildADWithLookahead(g *graph.Graph, batch int, hw sim.Config, so searchOpts, lookahead int) (*adPipeline, error) {
	sa := anneal.SA(g, hw.Engine, hw.Dataflow, so.anneal(hw))
	d, err := atom.Build(g, batch, sa.Spec)
	if err != nil {
		return nil, err
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: hw.Mesh.Engines(), Mode: schedule.DP, Lookahead: lookahead,
		EngineCfg: hw.Engine, Dataflow: hw.Dataflow, Oracle: hw.Oracle,
	})
	if err != nil {
		return nil, err
	}
	return &adPipeline{graph: g, sa: sa, dag: d, sched: s}, nil
}

// runAD is buildAD + simulation.
func runAD(g *graph.Graph, batch int, hw sim.Config, mode schedule.Mode, so searchOpts) (sim.Report, error) {
	p, err := buildAD(g, batch, hw, mode, so)
	if err != nil {
		return sim.Report{}, err
	}
	return sim.Run(p.dag, p.sched, hw)
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

// timeNow/timeSince isolate wall-clock use for the search-overhead rows.
func timeNow() time.Time            { return time.Now() }
func timeSince(t time.Time) float64 { return time.Since(t).Seconds() }
