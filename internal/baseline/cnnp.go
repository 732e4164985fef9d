package baseline

import (
	"fmt"
	"math"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// CNNP simulates the CNN-Partition baseline [51]: the N engines are
// clustered into K convolutional-layer processors (CLPs); the layers are
// split into K contiguous groups, one per CLP; a batch of images pipelines
// through the CLPs in layer-granularity segments (Fig. 3a). Each CLP reads
// its ifmaps and weights from off-chip memory and writes its ofmaps back,
// so every inter-CLP tensor crosses DRAM. The segment length is set by the
// slowest CLP. K is chosen by sweeping the divisors of N and keeping the
// best total time — with batch 1 this degenerates to K=1, i.e. the LS
// mapping, exactly as the paper notes.
func CNNP(g *graph.Graph, batch int, cfg sim.Config) (sim.Report, error) {
	if err := cfg.Validate(); err != nil {
		return sim.Report{}, err
	}
	if batch <= 1 {
		// A single image cannot pipeline across CLPs, so CNN-P degrades
		// to the LS mapping — the paper omits it from the latency figure
		// for exactly this reason (Sec. V-B).
		return LS(g, 1, cfg)
	}
	n := cfg.Mesh.Engines()
	units := scheduleUnits(g)
	if len(units) == 0 {
		return sim.Report{}, fmt.Errorf("baseline: no layers")
	}
	best := sim.Report{}
	found := false
	for _, k := range clpCounts(n, len(units)) {
		rep := cnnpWithK(g, units, batch, cfg, k)
		if !found || rep.Cycles < best.Cycles {
			best, found = rep, true
		}
	}
	return best, nil
}

// scheduleUnits lists the schedulable (non-virtual, non-concat) layers in
// topological order.
func scheduleUnits(g *graph.Graph) []*graph.Layer {
	var out []*graph.Layer
	for _, lid := range g.Topo() {
		l := g.Layer(lid)
		if l.Kind == graph.OpInput || l.Kind == graph.OpConcat {
			continue
		}
		out = append(out, l)
	}
	return out
}

// clpCounts enumerates candidate CLP counts: divisors of n capped by the
// layer count.
func clpCounts(n, layers int) []int {
	var ks []int
	for k := 1; k <= n && k <= layers; k *= 2 {
		if n%k == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// layerTimes prices each unit on m engines: compute cycles, DRAM bytes
// (ifmap + weights + ofmap — CNN-P always round-trips through DRAM).
type layerTime struct {
	compute    int64
	dramBytes  int64
	macs       int64
	sramBytes  int64
	weightHops int64 // byte-hops of intra-CLP weight broadcast
}

func priceLayers(units []*graph.Layer, cfg sim.Config, m int) []layerTime {
	orc := cost.Or(cfg.Oracle)
	out := make([]layerTime, len(units))
	for i, l := range units {
		lt := layerTime{
			compute:   layerEngineCycles(orc, l, cfg.Engine, cfg.Dataflow, m),
			dramBytes: l.InputBytes() + l.WeightBytes() + l.OutputBytes(),
			macs:      l.MACs(),
		}
		// Feature maps stage through the CLP buffers once; weights are
		// broadcast to all m engines of the CLP (spatial splitting means
		// every engine consumes the full layer weights), so their SRAM
		// traffic is amplified m-fold — the same accounting the
		// event-driven simulator applies to LS and AD.
		_, tiles := evenSplit(l, m)
		copies := int64(minInt(tiles, m))
		if copies < 1 {
			copies = 1
		}
		lt.sramBytes = 2*(l.InputBytes()+l.OutputBytes()) + 2*copies*l.WeightBytes()
		lt.weightHops = copies * l.WeightBytes()
		out[i] = lt
	}
	return out
}

// cnnpWithK prices the pipeline with exactly k CLPs.
func cnnpWithK(g *graph.Graph, units []*graph.Layer, batch int, cfg sim.Config, k int) sim.Report {
	n := cfg.Mesh.Engines()
	m := n / k
	lt := priceLayers(units, cfg, m)
	bounds := balancedPartition(lt, k, cfg, k)

	// Per-CLP per-image time: compute overlapped with its DRAM streaming
	// (double buffering), whichever dominates. The k CLPs share HBM
	// bandwidth.
	perCLPBW := cfg.DRAM.BytesPerCycle(cfg.Engine.FreqMHz) / float64(k)
	var segCompute, segTotal int64
	var totalDRAM, totalSRAM, totalMACs, totalWeightHops int64
	for j := 0; j < k; j++ {
		var comp, bytes, macs, sram int64
		for i := bounds[j]; i < bounds[j+1]; i++ {
			comp += lt[i].compute
			bytes += lt[i].dramBytes
			macs += lt[i].macs
			sram += lt[i].sramBytes
			totalWeightHops += lt[i].weightHops
		}
		dramCycles := int64(float64(bytes)/perCLPBW) + dram.AccessLatency
		t := comp
		if dramCycles > t {
			t = dramCycles
		}
		if t > segTotal {
			segTotal = t
		}
		if comp > segCompute {
			segCompute = comp
		}
		totalDRAM += bytes
		totalSRAM += sram
		totalMACs += macs
	}
	segments := int64(batch + k - 1)
	cycles := segments * segTotal

	var rep sim.Report
	rep.Cycles = cycles
	rep.TimeMS = float64(cycles) / (cfg.Engine.FreqMHz * 1e3)
	rep.Rounds = int(segments)
	rep.ComputeCycles = segments * segCompute
	rep.DRAMBlockedCycles = cycles - rep.ComputeCycles
	rep.MACs = int64(batch) * totalMACs
	rep.DRAMReadBytes = int64(batch) * (totalDRAM - outputBytes(units, bounds, k))
	rep.DRAMWriteBytes = int64(batch) * outputBytes(units, bounds, k)
	totalPEs := float64(n * cfg.Engine.NumPEs() * cfg.Engine.MACsPerPE)
	if cycles > 0 {
		rep.PEUtilization = float64(rep.MACs) / (float64(cycles) * totalPEs)
	}
	if rep.ComputeCycles > 0 {
		rep.ComputeUtil = float64(rep.MACs) / (float64(rep.ComputeCycles) * totalPEs)
	}
	// Intra-CLP scatter/gather traffic: tensors hop ~sqrt(m)/2 links,
	// plus the per-engine weight broadcast volume.
	hops := int64(math.Sqrt(float64(m))/2 + 1)
	rep.NoCByteHops = int64(batch) * (totalDRAM*hops/2 + totalWeightHops)
	rep.OnChipReuseRatio = 0 // every inter-layer tensor crosses DRAM

	rep.Energy.AddMACs(cfg.Energy, rep.MACs)
	rep.Energy.AddDRAM(cfg.Energy, rep.DRAMReadBytes+rep.DRAMWriteBytes)
	rep.Energy.AddSRAM(cfg.Energy, int64(batch)*totalSRAM/2, int64(batch)*totalSRAM/2)
	rep.Energy.AddNoC(cfg.Energy, rep.NoCByteHops)
	rep.Energy.AddStatic(cfg.Energy, cycles*int64(n))
	return rep
}

// outputBytes sums the DRAM write side (each layer's ofmap) of all units.
func outputBytes(units []*graph.Layer, bounds []int, k int) int64 {
	var t int64
	for j := 0; j < k; j++ {
		for i := bounds[j]; i < bounds[j+1]; i++ {
			t += units[i].OutputBytes()
		}
	}
	return t
}

// balancedPartition splits the unit sequence into k contiguous chunks
// minimizing the maximum chunk weight (compute + DRAM time), via binary
// search over the bottleneck. Returns k+1 chunk boundaries.
func balancedPartition(lt []layerTime, k int, cfg sim.Config, clps int) []int {
	perCLPBW := cfg.DRAM.BytesPerCycle(cfg.Engine.FreqMHz) / float64(clps)
	weight := func(i int) int64 {
		d := int64(float64(lt[i].dramBytes) / perCLPBW)
		if d > lt[i].compute {
			return d
		}
		return lt[i].compute
	}
	var lo, hi int64
	for i := range lt {
		w := weight(i)
		if w > lo {
			lo = w
		}
		hi += w
	}
	fits := func(cap int64) bool {
		chunks, cur := 1, int64(0)
		for i := range lt {
			w := weight(i)
			if cur+w > cap {
				chunks++
				cur = 0
			}
			cur += w
		}
		return chunks <= k
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Materialize boundaries for capacity lo.
	bounds := make([]int, 0, k+1)
	bounds = append(bounds, 0)
	cur := int64(0)
	for i := range lt {
		w := weight(i)
		if cur+w > lo && len(bounds) < k {
			bounds = append(bounds, i)
			cur = 0
		}
		cur += w
	}
	for len(bounds) < k {
		bounds = append(bounds, len(lt))
	}
	bounds = append(bounds, len(lt))
	return bounds
}
