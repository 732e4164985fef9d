// Package check validates an atomic-dataflow solution against the
// paper's definitions alone (Sec. III–IV), sharing no code with the
// scheduler, mapper, buffer manager or simulator that produced it:
//
//   - a Round runs at most one atom per engine, every atom runs exactly
//     once, and each runs in a Round strictly after all its producers;
//   - a simulated execution's cycles split exactly into compute,
//     NoC-blocked and DRAM-blocked time, its energy follows from its
//     counts and the energy model, and it is no faster than the critical
//     path of Cycle(atom), the PE array's MAC rate or the HBM's peak read
//     bandwidth allow;
//   - a lowered program (Program) keeps every engine's buffer within its
//     capacity, moves each dependency edge's bytes exactly once, writes
//     an output to DRAM before any engine loads it back, and moves the
//     Report's DRAM bytes and NoC byte-hops.
//
// Its only sources of truth are the atomic DAG (package atom), the layer
// graph, engine.Evaluate (the paper's black-box Cycle(atom)) and the
// energy model, so it imports none of the packages it checks. It takes
// plain data, a Round list, instruction streams and a Report's totals,
// which lets the scheduler call it without an import cycle. The
// engine-controller instruction set (Op, Instr) is declared here, beside
// the rules Program checks it by.
package check

import (
	"errors"
	"fmt"
	"math"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/energy"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// Rounds checks that rounds is a legal execution of d on the given
// number of engines: no Round is empty or holds more atoms than there are
// engines, every atom ID is known, no virtual input atom is scheduled,
// every other atom runs in exactly one Round, and every producer runs in
// a strictly earlier Round than its consumer. It returns the first
// violation found.
func Rounds(d *atom.DAG, rounds [][]int, engines int) error {
	_, err := roundOf(d, rounds, engines)
	return err
}

// roundOf checks rounds as Rounds does and returns each atom's Round, -1
// for the virtual input atoms. It runs in O(atoms + edges).
func roundOf(d *atom.DAG, rounds [][]int, engines int) ([]int32, error) {
	if engines < 1 {
		return nil, fmt.Errorf("check: %d engines", engines)
	}
	n := d.NumAtoms()
	at := make([]int32, n)
	for i := range at {
		at[i] = -1
	}
	for t, r := range rounds {
		if len(r) == 0 {
			return nil, fmt.Errorf("check: round %d is empty", t)
		}
		if len(r) > engines {
			return nil, fmt.Errorf("check: round %d holds %d atoms, over the engine count %d", t, len(r), engines)
		}
		for _, id := range r {
			if id < 0 || id >= n {
				return nil, fmt.Errorf("check: round %d: unknown atom %d", t, id)
			}
			if d.Atoms[id].Task.Kind == graph.OpInput {
				return nil, fmt.Errorf("check: round %d schedules virtual input atom %d", t, id)
			}
			if at[id] != -1 {
				return nil, fmt.Errorf("check: atom %d runs twice, in rounds %d and %d", id, at[id], t)
			}
			at[id] = int32(t)
		}
	}
	for id := range d.Atoms {
		if d.Atoms[id].Task.Kind == graph.OpInput {
			continue
		}
		if at[id] == -1 {
			return nil, fmt.Errorf("check: atom %d never runs", id)
		}
		deps, _, off := d.Deps(id)
		for _, p := range deps {
			p := p + off
			if d.Atoms[p].Task.Kind != graph.OpInput && at[p] >= at[id] {
				return nil, fmt.Errorf("check: dependency broken: atom %d in round %d reads atom %d in round %d",
					id, at[id], p, at[p])
			}
		}
	}
	return at, nil
}

// Totals is what Report checks: a simulated execution's totals and the
// hardware facts it ran on.
type Totals struct {
	Cycles            int64
	ComputeCycles     int64
	NoCBlockedCycles  int64
	DRAMBlockedCycles int64
	Rounds            int
	MACs              int64
	TimeMS            float64
	PEUtilization     float64
	ComputeUtil       float64
	OnChipReuseRatio  float64
	DRAMReadBytes     int64
	DRAMWriteBytes    int64
	NoCByteHops       int64
	Energy            energy.Breakdown

	Engines     int
	Engine      engine.Config
	Dataflow    engine.Dataflow
	EnergyModel energy.Model
	PeakGBps    float64 // HBM peak bandwidth
	// The 2D mesh the engines sit on, row-major, when the NoC is one;
	// zero otherwise, and Program then leaves NoCByteHops unchecked.
	MeshW, MeshH int
}

// relTol bounds the relative error of a recomputed floating-point
// total: the simulator sums some of them Round by Round.
const relTol = 1e-12

// Report checks r as the simulated execution of rounds over d. rounds
// must pass Rounds; otherwise Report returns that error alone. Every
// other violated invariant is reported, one line each.
func Report(d *atom.DAG, rounds [][]int, r Totals) error {
	at, err := roundOf(d, rounds, r.Engines)
	if err != nil {
		return err
	}
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("check: "+format, args...))
	}

	if r.Cycles <= 0 {
		fail("Cycles %d is not positive", r.Cycles)
	}
	if r.NoCBlockedCycles < 0 || r.DRAMBlockedCycles < 0 {
		fail("negative blocked cycles: NoC %d, DRAM %d", r.NoCBlockedCycles, r.DRAMBlockedCycles)
	}
	if sum := r.ComputeCycles + r.NoCBlockedCycles + r.DRAMBlockedCycles; sum != r.Cycles {
		fail("cycle split: Cycles %d != compute %d + NoC-blocked %d + DRAM-blocked %d = %d",
			r.Cycles, r.ComputeCycles, r.NoCBlockedCycles, r.DRAMBlockedCycles, sum)
	}
	if r.Rounds != len(rounds) {
		fail("Rounds %d, the schedule has %d", r.Rounds, len(rounds))
	}

	// One pass in Round order prices every atom once: MACs and the
	// critical path of Cycle(atom), each atom finishing Cycle(atom) after
	// its last producer (virtual inputs finish at 0).
	finish := make([]int64, d.NumAtoms())
	var macs, critical int64
	for _, round := range rounds {
		for _, id := range round {
			c := engine.Evaluate(r.Engine, r.Dataflow, d.Atoms[id].Task)
			macs += c.MACs
			var ready int64
			deps, _, off := d.Deps(id)
			for _, p := range deps {
				if p := p + off; at[p] >= 0 {
					ready = max(ready, finish[p])
				}
			}
			finish[id] = ready + c.Cycles
			critical = max(critical, finish[id])
		}
	}
	if r.MACs != macs {
		fail("MACs %d, the atoms hold %d", r.MACs, macs)
	}
	if d.Graph != nil {
		if want := int64(d.Batch) * d.Graph.TotalMACs(); macs != want {
			fail("the atoms hold %d MACs, batch %d x the graph's %d = %d",
				macs, d.Batch, d.Graph.TotalMACs(), want)
		}
	}

	totalPEs := int64(r.Engines) * int64(r.Engine.NumPEs()) * int64(r.Engine.MACsPerPE)
	var peUtil, computeUtil float64
	if r.Cycles > 0 {
		peUtil = float64(r.MACs) / (float64(r.Cycles) * float64(totalPEs))
	}
	if r.ComputeCycles > 0 {
		computeUtil = float64(r.MACs) / (float64(r.ComputeCycles) * float64(totalPEs))
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"TimeMS", r.TimeMS, float64(r.Cycles) / (r.Engine.FreqMHz * 1e3)},
		{"PEUtilization", r.PEUtilization, peUtil},
		{"ComputeUtil", r.ComputeUtil, computeUtil},
		{"energy MAC", r.Energy.MAC, r.EnergyModel.MACpJ * float64(r.MACs)},
		{"energy DRAM", r.Energy.DRAM, r.EnergyModel.DRAMpJB * float64(r.DRAMReadBytes+r.DRAMWriteBytes)},
		{"energy NoC", r.Energy.NoC, r.EnergyModel.NoCpJBHop * float64(r.NoCByteHops)},
		{"energy static", r.Energy.Static, r.EnergyModel.StaticpJCyc * float64(r.Cycles) * float64(r.Engines)},
	} {
		if !near(f.got, f.want) {
			fail("%s %v, recomputed %v", f.name, f.got, f.want)
		}
	}
	if !(r.OnChipReuseRatio >= 0 && r.OnChipReuseRatio <= 1) {
		fail("OnChipReuseRatio %v outside [0,1]", r.OnChipReuseRatio)
	}
	if !(r.Energy.SRAM >= 0) {
		fail("energy SRAM %v is negative", r.Energy.SRAM)
	}

	// Lower bounds. A Round lasts at least its slowest atom, so a chain
	// of producers takes the sum of its Cycle(atom) at least. The engines
	// issue at most totalPEs MACs a cycle. Every DRAM read completes
	// before the Round it feeds ends, through HBM channels that together
	// move at most PeakGBps; write-backs post without blocking a Round,
	// so the last ones may drain after Cycles and bound nothing.
	bytesPerCycle := r.PeakGBps * 1e3 / r.Engine.FreqMHz
	for _, b := range []struct {
		name string
		lb   int64
	}{
		{"critical-path", critical},
		{"MAC-rate", ceilDiv(macs, totalPEs)},
		{"DRAM-bandwidth", int64(math.Floor(float64(r.DRAMReadBytes) / bytesPerCycle))},
	} {
		if r.Cycles < b.lb {
			fail("Cycles %d below the %s lower bound %d", r.Cycles, b.name, b.lb)
		}
	}
	return errors.Join(errs...)
}

// near reports whether got is within relTol of want, relative to want.
func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Abs(want)
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
