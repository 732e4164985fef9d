// Package atomicflow is a from-scratch Go implementation of Atomic
// Dataflow (HPCA 2022): graph-level DNN workload orchestration for
// scalable multi-engine accelerators.
//
// The library partitions a DNN inference graph into atoms sized to the
// engine microarchitecture (simulated annealing, Algorithm 1), schedules
// the atomic DAG in engine-synchronized Rounds with priority-pruned
// dynamic programming (Algorithm 2), places each Round's atoms on the 2D
// mesh to minimize NoC transfer cost, manages the distributed on-chip
// buffers with invalid-occupation eviction (Algorithm 3), and evaluates
// the result on an event-driven system simulator with engine, NoC, HBM
// and energy models.
//
// Quick start:
//
//	g, _ := atomicflow.LoadModel("resnet50")
//	sol, _ := atomicflow.Orchestrate(g, atomicflow.Options{Batch: 1})
//	fmt.Printf("latency: %.2f ms, utilization: %.1f%%\n",
//	    sol.Report.TimeMS, 100*sol.Report.PEUtilization)
//
// The baseline strategies the paper compares against (Layer-Sequential,
// CNN-Partition, Inter-Layer Pipelining, Rammer-style rTask packing) are
// exposed through RunLS, RunCNNP, RunILPipe and RunRammer.
package atomicflow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/baseline"
	"github.com/atomic-dataflow/atomicflow/internal/check"
	"github.com/atomic-dataflow/atomicflow/internal/codegen"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/energy"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
	"github.com/atomic-dataflow/atomicflow/internal/modelio"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
	"github.com/atomic-dataflow/atomicflow/internal/trace"
)

// Core workload and hardware types, aliased from the implementation
// packages so the whole public surface lives in this package.
type (
	// Graph is a DNN inference workload: a DAG of layers.
	Graph = graph.Graph
	// Layer is one vertex of a workload graph.
	Layer = graph.Layer
	// Shape holds CONV-style tensor parameters (Hi, Wi, Ci, Ho, Wo, Co,
	// Kh, Kw, stride, padding).
	Shape = graph.Shape
	// OpKind enumerates layer operator types.
	OpKind = graph.OpKind
	// Dataflow selects the engine's spatial unrolling (KC-P or YX-P).
	Dataflow = engine.Dataflow
	// EngineConfig describes a single tensor engine.
	EngineConfig = engine.Config
	// HardwareConfig assembles the full accelerator model.
	HardwareConfig = sim.Config
	// Report is a simulation outcome: cycles, utilization, traffic,
	// energy breakdown.
	Report = sim.Report
	// ScheduleMode selects the DAG scheduling effort (DP or greedy).
	ScheduleMode = schedule.Mode
	// EnergyBreakdown itemizes energy by component in picojoules.
	EnergyBreakdown = energy.Breakdown
	// Mesh is the 2D-mesh NoC.
	Mesh = noc.Mesh
	// DRAMConfig describes the HBM stack.
	DRAMConfig = dram.Config
	// EnergyModel holds per-event energy costs.
	EnergyModel = energy.Model
	// CostOracle prices atomic tasks on an engine — the Cycle() oracle of
	// Algorithm 1. Install one in HardwareConfig.Oracle to count its
	// evaluations across orchestration runs; NewCostOracle builds the
	// standard stack.
	CostOracle = cost.Oracle
	// OracleStats counts cost-oracle evaluations.
	OracleStats = cost.Stats
	// MetricsRegistry collects counters, gauges and histograms from the
	// search, scheduler and simulator when installed as
	// HardwareConfig.Metrics. Nil registries (and all their instruments)
	// are safe no-ops, so the same code runs instrumented or not.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's instruments,
	// exported by Solution.Metrics and (*MetricsRegistry).Snapshot.
	MetricsSnapshot = obs.Snapshot
	// SearchSample is one per-chain annealing progress observation,
	// delivered in batches through Options.Progress: chain index,
	// iterations, temperature, best energy/unified cycle, and whether the
	// chain adopted the global best at this exchange barrier. CV()
	// converts the energy to the paper's load-balance metric.
	SearchSample = anneal.Sample
	// Program is a Solution lowered to one instruction stream per engine
	// (see Solution.Lower).
	Program = codegen.Program
	// AtomSpec maps layer IDs to the atom partitions Algorithm 1 chose
	// (see Solution.Spec).
	AtomSpec = atom.Spec
)

// Operator kinds.
const (
	OpInput         = graph.OpInput
	OpConv          = graph.OpConv
	OpDepthwiseConv = graph.OpDepthwiseConv
	OpFC            = graph.OpFC
	OpPool          = graph.OpPool
	OpEltwise       = graph.OpEltwise
	OpConcat        = graph.OpConcat
	OpActivation    = graph.OpActivation
	OpGlobalPool    = graph.OpGlobalPool
)

// Dataflows (paper Sec. V-B): KCPartition is the NVDLA-style channel
// unrolling, YXPartition the ShiDianNao-style spatial unrolling, and
// FlexPartition the paper's Discussion extension for arrays that
// spatially map three loop dimensions (set EngineConfig.PEz).
const (
	KCPartition   = engine.KCPartition
	YXPartition   = engine.YXPartition
	FlexPartition = engine.FlexPartition
)

// Scheduling modes.
const (
	ModeDP     = schedule.DP
	ModeGreedy = schedule.Greedy
)

// NewGraph returns an empty workload graph; add layers with
// (*Graph).AddLayer and call (*Graph).Finalize before orchestration.
func NewGraph(name string) *Graph { return graph.New(name) }

// UnionGraphs combines several finalized workloads into one multi-tenant
// graph: orchestrating the union co-locates the DNNs on the accelerator,
// with the scheduler interleaving their atoms like batch samples.
func UnionGraphs(name string, gs ...*Graph) (*Graph, error) { return graph.Union(name, gs...) }

// Shape constructors.
var (
	ConvShape    = graph.ConvShape
	FCShape      = graph.FCShape
	PoolShape    = graph.PoolShape
	EltwiseShape = graph.EltwiseShape
)

// NewMesh builds a W x H engine mesh with the given per-cycle link
// bandwidth in bytes.
func NewMesh(w, h, linkBytes int) *Mesh { return noc.NewMesh(w, h, linkBytes) }

// LoadModel builds one of the bundled workloads (see ModelNames).
func LoadModel(name string) (*Graph, error) { return models.Build(name) }

// WriteModel serializes a workload graph to the JSON exchange format —
// the library's ONNX-analogue interchange (see internal/modelio).
func WriteModel(w io.Writer, g *Graph) error { return modelio.Write(w, g) }

// ReadModel parses a workload graph from the JSON exchange format and
// returns it finalized.
func ReadModel(r io.Reader) (*Graph, error) { return modelio.Read(r) }

// ModelNames lists the bundled workload names.
func ModelNames() []string { return models.Names() }

// PaperWorkloads lists the eight models of the paper's Table I.
func PaperWorkloads() []string { return append([]string(nil), models.PaperWorkloads...) }

// DefaultHardware returns the paper's evaluation platform (Sec. V-A):
// 8x8 engines of 16x16 PEs, 128 KB SRAM each, 500 MHz, 4 GB HBM at
// 128 GB/s, 2D-mesh NoC.
func DefaultHardware() HardwareConfig { return sim.DefaultConfig() }

// NewMetrics returns an empty metrics registry. Install it as
// HardwareConfig.Metrics to collect the run's counters and histograms;
// export with WriteJSON, WritePrometheus or the obs HTTP handler
// (cmd/adexp -metrics-addr serves both).
func NewMetrics() *MetricsRegistry { return obs.New() }

// NewCostOracle returns the standard cost oracle: the engine model with
// an evaluation counter. Set it as HardwareConfig.Oracle (or let
// Orchestrate build one per run) to count the evaluations of several
// searches, schedules and baselines together; Solution.OracleStats
// reports its counter.
func NewCostOracle() CostOracle { return cost.Default() }

// Options tunes Orchestrate. The zero value gives the paper's defaults on
// the default hardware with batch 1.
type Options struct {
	// Batch is the number of inference samples gathered into one atomic
	// DAG (default 1).
	Batch int
	// Hardware is the accelerator model (default DefaultHardware()).
	Hardware *HardwareConfig
	// Mode selects DP (default) or greedy scheduling.
	Mode ScheduleMode
	// SAIters bounds the simulated-annealing search (default 600).
	SAIters int
	// Seed makes the SA search reproducible (default 1).
	Seed int64
	// Chains is the width of the parallel annealing portfolio (default
	// 1): the SAIters budget is split across this many concurrently-run,
	// independently-seeded SA chains that exchange best states at
	// deterministic barriers. The iteration budget is the same, so this
	// is a different search rather than a faster one; on the zoo it
	// often finds a lower simulated latency (DESIGN §8). Results are
	// bit-identical for a fixed (Seed, Chains) pair regardless of
	// GOMAXPROCS; Chains <= 1 is the one-chain portfolio, the paper's
	// Algorithm 1 trajectory.
	Chains int
	// MaxTilesPerLayer caps the atom count per layer (default 1024).
	MaxTilesPerLayer int
	// TraceWriter, when non-nil, receives the full-span trace of the
	// simulated execution as Chrome trace-event JSON: engine compute
	// lanes plus named NoC and DRAM lanes with blocked spans, the DRAM
	// prefetch windows and a flow-bytes counter track (open in
	// ui.perfetto.dev or chrome://tracing). An error writing it fails
	// the solve.
	TraceWriter io.Writer
	// Progress, when non-nil, streams per-chain search progress: one
	// SearchSample batch at every annealing exchange barrier and a final
	// batch after the polish sweep. The hook runs on the search's
	// coordinating goroutine between chain segments and must only
	// observe — installing it never perturbs the seeded trajectory, so
	// solutions (and their digests) are bit-identical with or without it.
	// This is what feeds the serving layer's live dashboard.
	Progress func([]SearchSample)
}

func (o Options) hardware() HardwareConfig {
	if o.Hardware != nil {
		return *o.Hardware
	}
	return DefaultHardware()
}

// Solution is a complete atomic-dataflow orchestration of one workload.
type Solution struct {
	// Report is the simulated execution outcome.
	Report Report
	// Atoms is the atomic DAG size (excluding virtual input atoms).
	Atoms int
	// Rounds is the schedule length.
	Rounds int
	// AtomCycleCV is the coefficient of variation of atom execution
	// cycles after SA — the load-balance metric of Algorithm 1.
	AtomCycleCV float64
	// SATrace is the SA convergence trace (variance per iteration).
	SATrace []float64
	// SearchTime is the compile-time cost of the full search.
	SearchTime time.Duration
	// OracleStats counts the cost-oracle evaluations of this
	// orchestration (zero when the configured oracle does not expose
	// counters).
	OracleStats OracleStats
	// Metrics is the final snapshot of the run's metrics registry (zero
	// maps when no registry was installed).
	Metrics MetricsSnapshot

	spec  atom.Spec // Algorithm 1's partitions, which dag was built from
	dag   *atom.DAG
	sched *schedule.Schedule
	hw    HardwareConfig // the hardware simulated, without its hooks
}

// Spec returns a copy of the per-layer atom partitions the search chose,
// the spec the solution's atomic DAG was built from, so a caller can
// build other schedules from the same atoms without searching again.
func (s *Solution) Spec() AtomSpec { return maps.Clone(s.spec) }

// Digest returns a hex SHA-256 over the solution's deterministic content:
// the full simulation Report, the atom and Round counts, the final
// load-balance CV, and the per-Round atom assignment. Wall-clock fields
// (SearchTime, Metrics, OracleStats) are excluded, so a fixed
// (graph, hardware, options, seed) triple must always produce the same
// digest — the property pinned by the cross-zoo determinism matrix and
// used by the serving layer as a solution identity.
func (s *Solution) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "report %+v\n", s.Report)
	fmt.Fprintf(h, "atoms %d rounds %d cv %v\n", s.Atoms, s.Rounds, s.AtomCycleCV)
	if s.sched != nil {
		for i, r := range s.sched.Rounds {
			fmt.Fprintf(h, "round %d %v\n", i, r.Atoms)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Lower compiles the solution to verified per-engine instruction streams
// on the hardware it was simulated on. Placement and buffering are the
// simulator's own, so the program is the lowering of Report: one SEND per
// NoC flow, and LOAD_IN and WRITEBK bytes equal to its DRAM bytes.
func (s *Solution) Lower() (*Program, error) {
	if s.sched == nil {
		return nil, fmt.Errorf("atomicflow: solution has no schedule")
	}
	p, err := codegen.Generate(s.dag, s.sched, s.hw)
	if err != nil {
		return nil, err
	}
	if err := p.Verify(s.dag); err != nil {
		return nil, fmt.Errorf("atomicflow: stream verification: %w", err)
	}
	return p, nil
}

// Check validates the solution against the paper's definitions with
// internal/check, which shares no code with the pipeline that produced
// it: the schedule is a legal execution of the atomic DAG, the Report's
// cycle split is exact, its energy recomputes from its counts, and its
// Cycles are at or above the critical path of Cycle(atom), the MAC-rate
// bound and the DRAM-bandwidth bound. Buffer capacity and byte
// conservation are not checked.
func (s *Solution) Check() error {
	if s.sched == nil {
		return fmt.Errorf("atomicflow: solution has no schedule")
	}
	rounds := make([][]int, len(s.sched.Rounds))
	for i, r := range s.sched.Rounds {
		rounds[i] = r.Atoms
	}
	r := s.Report
	return check.Report(s.dag, rounds, check.Totals{
		Cycles:            r.Cycles,
		ComputeCycles:     r.ComputeCycles,
		NoCBlockedCycles:  r.NoCBlockedCycles,
		DRAMBlockedCycles: r.DRAMBlockedCycles,
		Rounds:            r.Rounds,
		MACs:              r.MACs,
		TimeMS:            r.TimeMS,
		PEUtilization:     r.PEUtilization,
		ComputeUtil:       r.ComputeUtil,
		OnChipReuseRatio:  r.OnChipReuseRatio,
		DRAMReadBytes:     r.DRAMReadBytes,
		DRAMWriteBytes:    r.DRAMWriteBytes,
		NoCByteHops:       r.NoCByteHops,
		Energy:            r.Energy,

		Engines:     s.hw.Mesh.Engines(),
		Engine:      s.hw.Engine,
		Dataflow:    s.hw.Dataflow,
		EnergyModel: s.hw.Energy,
		PeakGBps:    s.hw.DRAM.PeakGBps,
	})
}

// Orchestrate runs the full atomic-dataflow pipeline on the workload:
// SA atom generation, atomic DAG construction, DAG scheduling, and
// simulation with mapping + buffering.
//
// The run's hooks ride on the hardware model. Its Ctx bounds all four
// stages (nil means context.Background()): the SA search, the Round
// scheduler and the simulator poll it, and Orchestrate returns an error
// wrapping the context's error (context.Canceled or
// context.DeadlineExceeded) as soon as it fires; an uncancelled context
// never changes the solution. Its Metrics registry, when non-nil,
// collects the counters and histograms of the search and the simulator,
// and Solution.Metrics holds its final snapshot.
func Orchestrate(g *Graph, opt Options) (*Solution, error) {
	if g == nil {
		return nil, fmt.Errorf("atomicflow: nil graph")
	}
	hw := opt.hardware()
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	// One instrumented oracle spans the whole pipeline, so OracleStats
	// counts the search's and the scheduler's evaluations together.
	if hw.Oracle == nil {
		hw.Oracle = cost.Default()
	}
	if hw.Ctx == nil {
		hw.Ctx = context.Background()
	}
	ctx := hw.Ctx
	start := time.Now()
	res := anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{
		MaxIters:       opt.SAIters,
		Seed:           opt.Seed,
		Chains:         opt.Chains,
		MaxTilesPerLay: opt.MaxTilesPerLayer,
		Oracle:         hw.Oracle,
		Metrics:        hw.Metrics,
		Progress:       opt.Progress,
		Ctx:            ctx,
	})
	// SA returns its best-so-far state on cancellation; surface the
	// abandonment as an error before burning time on the later stages.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("atomicflow: orchestration abandoned: %w", err)
	}
	d, err := atom.Build(g, knob.Batch.Or(opt.Batch), res.Spec)
	if err != nil {
		return nil, err
	}
	atoms := 0
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			atoms++
		}
	}
	if atoms == 0 {
		// Only inputs and concats, which move no data of their own:
		// there is no execution to schedule or simulate.
		return nil, fmt.Errorf("atomicflow: graph %q has no layer to execute", g.Name)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines:   hw.Mesh.Engines(),
		Mode:      opt.Mode,
		EngineCfg: hw.Engine,
		Dataflow:  hw.Dataflow,
		Oracle:    hw.Oracle,
		Ctx:       ctx,
	})
	if err != nil {
		return nil, err
	}
	searchTime := time.Since(start)
	var col *trace.Collector
	if opt.TraceWriter != nil {
		col = &trace.Collector{}
		hw.Trace = col.Hook
	}
	rep, err := sim.Run(d, s, hw)
	if col != nil {
		// A failed simulation still leaves the Rounds it timed; a failed
		// write fails the solve.
		if werr := col.WritePerfetto(opt.TraceWriter, g); werr != nil && err == nil {
			err = fmt.Errorf("atomicflow: writing trace: %w", werr)
		}
	}
	if err != nil {
		return nil, err
	}
	ostats, _ := cost.StatsOf(hw.Oracle)
	var snap MetricsSnapshot
	if hw.Metrics != nil {
		snap = hw.Metrics.Snapshot()
	}
	hw.Trace, hw.Metrics, hw.Ctx = nil, nil, nil
	return &Solution{
		Report:      rep,
		Atoms:       atoms,
		Rounds:      s.NumRounds(),
		AtomCycleCV: res.FinalCV,
		SATrace:     res.Trace,
		SearchTime:  searchTime,
		OracleStats: ostats,
		Metrics:     snap,
		spec:        res.Spec,
		dag:         d,
		sched:       s,
		hw:          hw,
	}, nil
}

// Baseline strategies (paper Sec. II-B, V-A). Each runs the named
// orchestration on the same hardware model and returns its Report.

// RunLS simulates the Layer-Sequential baseline.
func RunLS(g *Graph, batch int, hw HardwareConfig) (Report, error) {
	return baseline.LS(g, knob.Batch.Or(batch), hw)
}

// RunCNNP simulates the CNN-Partition baseline.
func RunCNNP(g *Graph, batch int, hw HardwareConfig) (Report, error) {
	return baseline.CNNP(g, knob.Batch.Or(batch), hw)
}

// RunILPipe simulates the Inter-Layer Pipelining baseline (with ALLO
// fine-grained pipelining).
func RunILPipe(g *Graph, batch int, hw HardwareConfig) (Report, error) {
	return baseline.ILPipe(g, knob.Batch.Or(batch), hw)
}

// RunRammer simulates a Rammer-style rTask co-location baseline.
func RunRammer(g *Graph, batch int, hw HardwareConfig) (Report, error) {
	return baseline.Rammer(g, knob.Batch.Or(batch), hw)
}
