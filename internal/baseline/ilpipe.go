package baseline

import (
	"fmt"
	"math"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// ILPipe simulates the Inter-Layer Pipelining baseline [Tangram]: the
// layers are grouped into S contiguous pipeline stages mapped to adjacent
// engine regions, with engines allocated in proportion to each stage's
// computation. Intermediate tensors are forwarded on-chip between adjacent
// regions, so DRAM sees only the network input, the final output, and the
// weight streams of stages whose weights exceed their region's buffers.
// The fine-grained ALLO enhancement halves the pipeline fill/drain delay
// (the best case the paper grants the baseline).
//
// Its weaknesses — the ones the paper's Fig. 8/9 exposes — emerge
// naturally: batch-1 latency pays the full pipeline fill, and throughput
// is set by the slowest (imbalanced) stage while other regions idle.
func ILPipe(g *graph.Graph, batch int, cfg sim.Config) (sim.Report, error) {
	if err := cfg.Validate(); err != nil {
		return sim.Report{}, err
	}
	n := cfg.Mesh.Engines()
	units := scheduleUnits(g)
	if len(units) == 0 {
		return sim.Report{}, fmt.Errorf("baseline: no layers")
	}
	// Sweep the stage count (a Tangram designer picks the best segment
	// granularity) and keep the fastest pipeline.
	best := sim.Report{}
	found := false
	for s := 2; s <= minInt(n, len(units)); s *= 2 {
		rep := ilPipeWithStages(units, batch, cfg, s)
		if !found || rep.Cycles < best.Cycles {
			best, found = rep, true
		}
	}
	if !found {
		return ilPipeWithStages(units, batch, cfg, minInt(n, len(units))), nil
	}
	return best, nil
}

// ilPipeWithStages prices the pipeline with exactly s stages.
func ilPipeWithStages(units []*graph.Layer, batch int, cfg sim.Config, s int) sim.Report {
	n := cfg.Mesh.Engines()
	bounds := macBalancedBounds(units, s)

	// Engine allocation proportional to stage MACs (>=1 each).
	alloc := allocEngines(units, bounds, s, n)

	type stageCost struct {
		compute  int64
		total    int64
		dram     int64 // bytes
		noc      int64 // byte-hops
		sram     int64
		macs     int64
		interOut int64 // ofmap bytes forwarded to next stage
	}
	orc := cost.Or(cfg.Oracle)
	stages := make([]stageCost, s)
	for j := 0; j < s; j++ {
		m := alloc[j]
		var sc stageCost
		var weightBytes int64
		for i := bounds[j]; i < bounds[j+1]; i++ {
			l := units[i]
			sc.compute += layerEngineCycles(orc, l, cfg.Engine, cfg.Dataflow, m)
			sc.macs += l.MACs()
			weightBytes += l.WeightBytes()
			// Spatial splitting within the stage region means each of
			// its m engines reads the full layer weights per sample —
			// the same amplification the simulator charges LS and AD.
			_, tiles := evenSplit(l, m)
			copies := int64(minInt(tiles, m))
			if copies < 1 {
				copies = 1
			}
			sc.sram += l.InputBytes() + l.OutputBytes() + copies*l.WeightBytes()
		}
		last := units[bounds[j+1]-1]
		sc.interOut = last.OutputBytes()
		// Stage weights resident when they fit the region's buffers;
		// otherwise they stream from DRAM every sample.
		regionBuf := int64(m) * int64(cfg.Engine.BufferBytes)
		if weightBytes > regionBuf/2 {
			sc.dram += weightBytes
		}
		if j == 0 {
			sc.dram += units[0].InputBytes() // network input
		}
		if j == s-1 {
			sc.dram += sc.interOut // network output
		}
		// Inter-stage forwarding: adjacent regions, ~1-2 hops, serialized
		// on the boundary links.
		if j > 0 {
			in := units[bounds[j]].InputBytes()
			sc.noc = in * 2
			sc.compute += in / int64(cfg.Mesh.LinkBytes)
		}
		dramCycles := int64(float64(sc.dram)/cfg.DRAM.BytesPerCycle(cfg.Engine.FreqMHz)) + dram.AccessLatency
		sc.total = sc.compute
		if dramCycles > sc.total {
			sc.total = dramCycles
		}
		stages[j] = sc
	}

	var beat, beatCompute, fill, fillCompute int64
	var dramPerSample, nocPerSample, sramPerSample, macsPerSample int64
	for _, sc := range stages {
		if sc.total > beat {
			beat = sc.total
		}
		if sc.compute > beatCompute {
			beatCompute = sc.compute
		}
		fill += sc.total
		fillCompute += sc.compute
		dramPerSample += sc.dram
		nocPerSample += sc.noc
		sramPerSample += sc.sram
		macsPerSample += sc.macs
	}
	// ALLO fine-grained pipelining: half the fill/drain delay alleviated.
	fillALLO := fill/2 + beat/2
	cycles := fillALLO + int64(batch-1)*beat
	computeCycles := fillCompute/2 + beatCompute/2 + int64(batch-1)*beatCompute

	var rep sim.Report
	rep.Cycles = cycles
	rep.TimeMS = float64(cycles) / (cfg.Engine.FreqMHz * 1e3)
	rep.Rounds = batch + s - 1
	rep.ComputeCycles = computeCycles
	rep.DRAMBlockedCycles = cycles - computeCycles
	rep.MACs = int64(batch) * macsPerSample
	rep.DRAMReadBytes = int64(batch) * (dramPerSample - stages[s-1].interOut)
	rep.DRAMWriteBytes = int64(batch) * stages[s-1].interOut
	rep.NoCByteHops = int64(batch) * nocPerSample
	totalPEs := float64(n * cfg.Engine.NumPEs() * cfg.Engine.MACsPerPE)
	if cycles > 0 {
		rep.PEUtilization = float64(rep.MACs) / (float64(cycles) * totalPEs)
	}
	if computeCycles > 0 {
		rep.ComputeUtil = float64(rep.MACs) / (float64(computeCycles) * totalPEs)
	}
	// Every inter-layer tensor stays on-chip: reuse covers all but the
	// network input.
	var interBytes, inputBytes int64
	for j, sc := range stages {
		if j > 0 {
			interBytes += sc.interOut
		}
	}
	inputBytes = units[0].InputBytes()
	if interBytes+inputBytes > 0 {
		rep.OnChipReuseRatio = float64(interBytes) / float64(interBytes+inputBytes)
	}

	rep.Energy.AddMACs(cfg.Energy, rep.MACs)
	rep.Energy.AddDRAM(cfg.Energy, rep.DRAMReadBytes+rep.DRAMWriteBytes)
	rep.Energy.AddSRAM(cfg.Energy, int64(batch)*sramPerSample/2, int64(batch)*sramPerSample/2)
	rep.Energy.AddNoC(cfg.Energy, rep.NoCByteHops)
	rep.Energy.AddStatic(cfg.Energy, cycles*int64(n))
	return rep
}

// macBalancedBounds splits units into s contiguous non-empty stages with
// roughly equal MACs: a cut is forced once the remaining units are only
// just enough to populate the remaining stages.
func macBalancedBounds(units []*graph.Layer, s int) []int {
	var total int64
	for _, l := range units {
		total += l.MACs() + 1
	}
	target := total / int64(s)
	bounds := []int{0}
	var acc int64
	for i, l := range units {
		acc += l.MACs() + 1
		after := len(units) - (i + 1) // units left past i
		need := s - len(bounds)       // interior cuts still required
		if need > 0 && after >= need && (acc >= target || after == need) {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	return append(bounds, len(units))
}

// allocEngines distributes n engines over stages proportionally to MACs,
// at least one each.
func allocEngines(units []*graph.Layer, bounds []int, s, n int) []int {
	macs := make([]float64, s)
	var total float64
	for j := 0; j < s; j++ {
		for i := bounds[j]; i < bounds[j+1]; i++ {
			macs[j] += float64(units[i].MACs() + 1)
		}
		total += macs[j]
	}
	alloc := make([]int, s)
	used := 0
	for j := 0; j < s; j++ {
		alloc[j] = maxInt(1, int(math.Floor(macs[j]/total*float64(n))))
		used += alloc[j]
	}
	// Distribute leftovers to the heaviest stages; trim overshoot from
	// the lightest.
	for used < n {
		j := argmaxRatio(macs, alloc)
		alloc[j]++
		used++
	}
	for used > n {
		j := argminRatio(macs, alloc)
		if alloc[j] > 1 {
			alloc[j]--
			used--
		} else {
			break
		}
	}
	return alloc
}

func argmaxRatio(macs []float64, alloc []int) int {
	best, bestV := 0, -1.0
	for j := range macs {
		v := macs[j] / float64(alloc[j])
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

func argminRatio(macs []float64, alloc []int) int {
	best, bestV := 0, math.MaxFloat64
	for j := range macs {
		if alloc[j] <= 1 {
			continue
		}
		v := macs[j] / float64(alloc[j])
		if v < bestV {
			best, bestV = j, v
		}
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
