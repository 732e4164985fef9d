// Package sim is the event-driven system simulator of the scalable
// accelerator (paper Sec. V-A): it executes a Round schedule with an
// atom-engine mapping against the engine, NoC, DRAM, buffer and energy
// models, and reports execution time, utilization, NoC-blocked fraction,
// on-chip reuse ratio, DRAM traffic and the energy breakdown.
//
// Rounds are barrier-synchronized (Sec. III). Within a Round the simulator
// is event-driven at flow granularity: DRAM requests queue on HBM channels,
// NoC flows serialize on shared mesh links along their XY routes, and each
// engine starts computing when its last input arrives. Eviction write-backs
// post to the HBM write queue without blocking the Round (write-buffer
// semantics), but they do delay later reads through channel occupancy.
package sim

import (
	"context"
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/energy"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// Config assembles the hardware models.
type Config struct {
	Mesh     *noc.Mesh
	Engine   engine.Config
	Dataflow engine.Dataflow
	DRAM     dram.Config
	Energy   energy.Model

	// DoubleBuffer overlaps a Round's DRAM fetches with the previous
	// Round's compute (default true via DefaultConfig).
	DoubleBuffer bool
	// NaiveMapping places Rounds in plain zig-zag order without the
	// TransferCost permutation search or weight-affinity refinement —
	// the placement a reuse-oblivious runtime (e.g. Rammer) would use.
	NaiveMapping bool
	// Trace, when non-nil, receives one RoundTrace per executed Round
	// (see internal/trace for exporters).
	Trace func(RoundTrace)
	// Oracle is the run's shared cost oracle, read only for the metrics
	// export: the simulator prices no atom itself, since the Schedule
	// carries every atom's cycles and MACs. With Metrics set, its
	// evaluation count is exported as a gauge (none when nil).
	Oracle cost.Oracle
	// Metrics, when non-nil, receives the run's counters and histograms:
	// per-engine busy/idle cycles, barrier waits, per-link NoC traffic,
	// DRAM row hits/queueing, buffer occupancy and the cost-oracle count
	// (see internal/obs). The nil default adds one predicted-not-taken
	// branch per Round — nothing on the flow hot path (pinned by
	// BenchmarkSimRun).
	Metrics *obs.Registry

	// Ctx, when non-nil, lets callers abandon a simulation: Run polls it
	// between Rounds and returns the context's error once cancelled. An
	// uncancelled context never changes the Report produced.
	Ctx context.Context
}

// AtomTrace records one atom's execution within a Round.
type AtomTrace struct {
	Atom   int
	Layer  int
	Sample int
	Engine int
	Cycles int64 // compute cycles on its engine
}

// RoundTrace records the timing of one Round for trace exporters.
type RoundTrace struct {
	Round      int
	Start, End int64 // absolute cycles
	ComputeEnd int64 // end if neither NoC nor DRAM ever blocked
	Atoms      []AtomTrace
	Flows      int
	DRAMRead   int64
	DRAMWrite  int64

	// Full-span lanes (Perfetto export): the DRAM prefetch window and
	// the Round end with NoC contention excluded, so exporters can draw
	// distinct DRAM-block [ComputeEnd, DRAMEnd] and NoC-block
	// [DRAMEnd, End] spans plus a DRAM read lane [DRAMIssue, DRAMReady].
	DRAMEnd   int64 // end if the NoC never blocked (compute + DRAM only)
	DRAMIssue int64 // cycle the Round's DRAM reads were issued (prefetch)
	DRAMReady int64 // cycle the last engine's DRAM data arrived
	FlowBytes int64 // Σ bytes of the Round's on-chip flows
}

// DefaultConfig returns the paper's 8x8-engine system (Sec. V-A), its
// mesh shape read from the knob table. Mesh links carry 32 B/cycle
// (256-bit channels at 500 MHz = 16 GB/s per link), the common width for
// tensor-engine meshes.
func DefaultConfig() Config {
	return Config{
		Mesh:         noc.NewMesh(knob.MeshW.Def, knob.MeshH.Def, knob.LinkBytes.Def),
		Engine:       engine.Default(),
		Dataflow:     engine.KCPartition,
		DRAM:         dram.Default(),
		Energy:       energy.Default(),
		DoubleBuffer: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Mesh == nil {
		return fmt.Errorf("sim: nil mesh")
	}
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// Report is the simulation outcome.
type Report struct {
	Cycles        int64   // total execution cycles
	TimeMS        float64 // Cycles at the engine clock
	Rounds        int
	ComputeCycles int64 // Σ per-Round slowest compute (memory-free time)

	NoCBlockedCycles  int64 // added by on-chip transfer waits
	DRAMBlockedCycles int64 // added by off-chip access waits

	MACs             int64
	PEUtilization    float64 // MACs / (Cycles x total PEs) — end-to-end
	ComputeUtil      float64 // MACs / (ComputeCycles x total PEs) — w/o memory delay
	DRAMReadBytes    int64
	DRAMWriteBytes   int64
	NoCByteHops      int64
	OnChipReuseRatio float64 // fraction of input bytes served from distributed buffers
	Evictions        int64

	Energy energy.Breakdown
}

// NoCOverheadFraction returns the share of total time the NoC blocks
// computation (Table II row "NoC Overhead").
func (r Report) NoCOverheadFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.NoCBlockedCycles) / float64(r.Cycles)
}

// Run simulates the schedule on the configured hardware.
//
// The Round loop is always a two-stage software pipeline (see
// pipeline.go): round t+1's placement and buffer replay run on a second
// goroutine while round t is timed, and the mapper/buffer-manager/arena
// trio is pooled across Run calls keyed by mesh shape. Neither changes
// the Report by a single bit — the pipelined Report is pinned against a
// serial prep→time reference loop kept in the package's tests, and by
// the golden and zoo digest tests.
func Run(d *atom.DAG, s *schedule.Schedule, cfg Config) (Report, error) {
	r, release, err := newRunner(d, s, cfg)
	if err != nil {
		return Report{}, err
	}
	defer release()
	if err := r.runPipelined(); err != nil {
		return Report{}, err
	}
	return r.report(), nil
}

// Prepared is one Round as Run's prep stage hands it to the timing
// stage: the atoms' engine placement and the buffer replay's IO, plus
// the replay's witness, which only Replay records. Placed reads the
// Round's own atoms' engines; an atom of an earlier Round reads the
// engine its own Round placed it on, and a later Round's atom reads -1.
type Prepared struct {
	Round  int
	Placed *mapping.Result
	IO     *buffer.RoundIO
	// Witness lists every engine's steps of the Round in the buffer
	// replay's order (buffer.Manager.Record).
	Witness []buffer.Event
}

// Replay runs Run's prep stage serially on cfg's hardware, placement
// (NaiveMapping included) and buffer replay exactly as Run prepares them,
// and hands each prepared Round to fn instead of timing it. fn must not
// keep the Prepared: the next Round is prepared into the same storage.
// Unlike Run, Replay records the buffer replay's witness.
func Replay(d *atom.DAG, s *schedule.Schedule, cfg Config, fn func(Prepared)) error {
	r, release, err := newRunner(d, s, cfg)
	if err != nil {
		return err
	}
	defer release()
	r.man.Record(true) // the pool's next Reset switches it off
	slot := &r.slots[0]
	for t := range s.Rounds {
		if err := r.pollCtx(); err != nil {
			return err
		}
		if r.prep(t, slot); slot.err != nil {
			return slot.err
		}
		fn(Prepared{Round: t, Placed: &slot.placed, IO: &slot.io, Witness: r.man.Witness()})
	}
	return nil
}

// newRunner validates cfg and assembles a runner over pooled state; the
// returned release hands the state back to its pool.
func newRunner(d *atom.DAG, s *schedule.Schedule, cfg Config) (*runner, func(), error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	st, reused, err := acquireState(cfg, d, s)
	if err != nil {
		return nil, nil, err
	}
	sm := newSimMetrics(cfg.Metrics, cfg.Mesh)
	if sm != nil {
		st.ar.linkTraffic = sm.linkBytes
		if reused {
			sm.poolReuse.Inc()
		}
	}
	r := &runner{
		cfg: cfg, d: d, s: s, n: cfg.Mesh.Engines(),
		man: st.man, mapper: st.mapper, ar: st.ar, slots: &st.slots,
		hbm: dram.New(cfg.DRAM, cfg.Engine.FreqMHz), sm: sm,
	}
	r.rep.Rounds = s.NumRounds()
	return r, func() { releaseState(cfg.Mesh, st) }, nil
}

// report completes the Report once every Round has been timed.
func (r *runner) report() Report {
	cfg, n := &r.cfg, r.n
	rep := &r.rep
	rep.Cycles = r.now
	rep.TimeMS = float64(r.now) / (cfg.Engine.FreqMHz * 1e3)
	rep.Evictions = r.man.Evictions()
	if r.totalInputs > 0 {
		rep.OnChipReuseRatio = float64(r.onChipInputs) / float64(r.totalInputs)
	}
	totalPEs := int64(n * cfg.Engine.NumPEs() * cfg.Engine.MACsPerPE)
	if rep.Cycles > 0 {
		rep.PEUtilization = float64(rep.MACs) / (float64(rep.Cycles) * float64(totalPEs))
	}
	if rep.ComputeCycles > 0 {
		rep.ComputeUtil = float64(rep.MACs) / (float64(rep.ComputeCycles) * float64(totalPEs))
	}
	rep.Energy.AddMACs(cfg.Energy, rep.MACs)
	rep.Energy.AddDRAM(cfg.Energy, rep.DRAMReadBytes+rep.DRAMWriteBytes)
	rep.Energy.AddStatic(cfg.Energy, rep.Cycles*int64(n))
	if r.sm != nil {
		r.sm.finish(rep, r.man, r.hbm, cfg.Oracle)
	}
	return r.rep
}

func sumSlice(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
