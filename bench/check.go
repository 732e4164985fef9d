package main

import (
	"fmt"
	"math"

	"github.com/atomic-dataflow/atomicflow/internal/energy"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// The output checks below are written from the definitions of the
// reported quantities, not from the code that computes them: they call
// no method of the graph, the simulator or the energy model, so a bug on
// a fast path cannot also hide itself here.

// hwFacts are the hardware constants a Report must be consistent with.
type hwFacts struct {
	engines int64
	macsPer int64 // MACs the whole accelerator can issue per cycle
	freqMHz float64
	energy  energy.Model
}

func factsOf(hw sim.Config) hwFacts {
	e := hw.Engine
	pez := int64(1)
	if e.PEz > 1 {
		pez = int64(e.PEz)
	}
	engines := int64(hw.Mesh.W * hw.Mesh.H)
	return hwFacts{
		engines: engines,
		macsPer: engines * int64(e.PEx) * int64(e.PEy) * pez * int64(e.MACsPerPE),
		freqMHz: e.FreqMHz,
		energy:  hw.Energy,
	}
}

// modelMACs sums a graph's multiply-accumulates from its layer shapes:
// Ho·Wo·Co·Ci·Kh·Kw for convolutions and fully-connected layers,
// Ho·Wo·Co·Kh·Kw for depthwise convolutions, and none for the vector-unit
// layers (pooling, element-wise, concat).
func modelMACs(g *graph.Graph) int64 {
	var n int64
	for _, l := range g.Layers {
		s := l.Shape
		spatial := int64(s.Ho) * int64(s.Wo) * int64(s.Co) * int64(s.Kh) * int64(s.Kw)
		switch l.Kind {
		case graph.OpConv, graph.OpFC:
			n += spatial * int64(s.Ci)
		case graph.OpDepthwiseConv:
			n += spatial
		}
	}
	return n
}

// checkReport reports the first way r is inconsistent with its workload
// (wantMACs multiply-accumulates) and hardware.
func checkReport(r sim.Report, wantMACs int64, f hwFacts) error {
	if r.MACs != wantMACs {
		return fmt.Errorf("report has %d MACs, the workload has %d", r.MACs, wantMACs)
	}
	if sum := r.ComputeCycles + r.NoCBlockedCycles + r.DRAMBlockedCycles; r.Cycles != sum {
		return fmt.Errorf("cycles %d != compute %d + NoC-blocked %d + DRAM-blocked %d",
			r.Cycles, r.ComputeCycles, r.NoCBlockedCycles, r.DRAMBlockedCycles)
	}
	if r.Cycles <= 0 || r.Cycles*f.macsPer < r.MACs {
		return fmt.Errorf("cycles %d below the MACs/PEs bound %d", r.Cycles, r.MACs/f.macsPer)
	}
	if !near(r.TimeMS, float64(r.Cycles)/(f.freqMHz*1e3)) {
		return fmt.Errorf("time %v ms does not match %d cycles at %v MHz", r.TimeMS, r.Cycles, f.freqMHz)
	}
	m, e := f.energy, r.Energy
	parts := []struct {
		name      string
		got, want float64
	}{
		{"MAC", e.MAC, m.MACpJ * float64(r.MACs)},
		{"DRAM", e.DRAM, m.DRAMpJB * float64(r.DRAMReadBytes+r.DRAMWriteBytes)},
		{"NoC", e.NoC, m.NoCpJBHop * float64(r.NoCByteHops)},
		{"static", e.Static, m.StaticpJCyc * float64(r.Cycles*f.engines)},
	}
	for _, p := range parts {
		if !near(p.got, p.want) {
			return fmt.Errorf("%s energy %v pJ, its events cost %v pJ", p.name, p.got, p.want)
		}
	}
	if !(e.SRAM >= 0) || math.IsInf(e.SRAM, 0) {
		return fmt.Errorf("SRAM energy %v pJ", e.SRAM)
	}
	return nil
}

// near compares two non-negative quantities to a relative 1e-9, the
// slack that summing the same products in another order can need.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
