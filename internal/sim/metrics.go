package sim

import (
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
)

// simMetrics holds the simulator's pre-registered instruments plus the
// per-run scratch the arena fills. All registration happens once at Run
// start; the Round loop touches only resolved instrument pointers, and
// with metrics disabled (cfg.Metrics == nil) newSimMetrics returns nil so
// the loop's single `sm != nil` checks are the whole cost.
type simMetrics struct {
	rounds         *obs.Counter
	flows          *obs.Counter
	mapPerms       *obs.Counter
	mapByteHops    *obs.Counter
	pipelineStalls *obs.Counter // Rounds where timing waited on prep
	poolReuse      *obs.Counter // Runs served from the runState pool
	roundSpan      *obs.Histogram
	barrierWait    *obs.Histogram
	nocBlockHist   *obs.Histogram
	dramBlockHist  *obs.Histogram

	busy []*obs.Counter // per-engine compute cycles
	idle []*obs.Counter // per-engine cycles not computing within Rounds

	linkBytes []int64 // per-link traffic this Run, folded by finish
	compOf    []int64 // per-engine compute scratch, cleared each Round

	reg  *obs.Registry
	mesh *noc.Mesh
}

// cycleBuckets spans 1 cycle to ~1G cycles geometrically.
func cycleBuckets() []float64 { return obs.ExpBuckets(1, 4, 16) }

// byteBuckets spans 64 B to ~2 GB geometrically.
func byteBuckets() []float64 { return obs.ExpBuckets(64, 4, 13) }

// newSimMetrics resolves every instrument the Round loop needs. Returns
// nil when reg is nil — the disabled fast path.
func newSimMetrics(reg *obs.Registry, mesh *noc.Mesh) *simMetrics {
	if reg == nil {
		return nil
	}
	n := mesh.Engines()
	sm := &simMetrics{
		rounds:         reg.Counter("sim_rounds_total"),
		flows:          reg.Counter("noc_flows_total"),
		mapPerms:       reg.Counter("mapping_permutations_total"),
		mapByteHops:    reg.Counter("mapping_byte_hops_total"),
		pipelineStalls: reg.Counter("sim_pipeline_stalls_total"),
		poolReuse:      reg.Counter("sim_pool_reuse_total"),
		roundSpan:      reg.Histogram("sim_round_span_cycles", cycleBuckets()),
		barrierWait:    reg.Histogram("sim_barrier_wait_cycles", cycleBuckets()),
		nocBlockHist:   reg.Histogram("sim_round_noc_block_cycles", cycleBuckets()),
		dramBlockHist:  reg.Histogram("sim_round_dram_block_cycles", cycleBuckets()),
		busy:           make([]*obs.Counter, n),
		idle:           make([]*obs.Counter, n),
		linkBytes:      make([]int64, mesh.NumLinks()),
		compOf:         make([]int64, n),
		reg:            reg,
		mesh:           mesh,
	}
	for e := 0; e < n; e++ {
		sm.busy[e] = reg.Counter(obs.Name("sim_engine_busy_cycles", "engine", e))
		sm.idle[e] = reg.Counter(obs.Name("sim_engine_idle_cycles", "engine", e))
	}
	return sm
}

// observeRound records one Round's metrics. endAll/endNoNoC/endNoMem are
// the Round's barrier times (see Run); engineEnd returns the cycle engine
// e's atom finished (compute and data both arrived).
func (sm *simMetrics) observeRound(span, nocBlock, dramBlock int64, perms int, mapHops int64, nFlows int) {
	sm.rounds.Inc()
	sm.roundSpan.ObserveInt(span)
	sm.nocBlockHist.ObserveInt(nocBlock)
	sm.dramBlockHist.ObserveInt(dramBlock)
	sm.mapPerms.Add(int64(perms))
	sm.mapByteHops.Add(mapHops)
	sm.flows.Add(int64(nFlows))
}

// finish folds the end-of-run state of every hardware model into the
// registry: per-link NoC traffic, DRAM row/queue stats, buffer occupancy,
// the cost-oracle evaluation count and the Report's headline quantities.
func (sm *simMetrics) finish(rep *Report, man *buffer.Manager, hbm *dram.HBM, orc cost.Oracle, ar *arena) {
	reg := sm.reg

	// NoC: per-link distribution of this run's traffic, peak and total.
	linkHist := reg.Histogram("noc_link_bytes", byteBuckets())
	var total, peak int64
	for _, b := range sm.linkBytes {
		if b == 0 {
			continue
		}
		linkHist.ObserveInt(b)
		total += b
		if b > peak {
			peak = b
		}
	}
	reg.Counter("noc_link_bytes_total").Add(total)
	reg.Gauge("noc_link_bytes_peak").Max(float64(peak))
	reg.Counter("noc_byte_hops_total").Add(rep.NoCByteHops)
	reg.Gauge("noc_route_build_seconds").Set(sm.mesh.RouteBuildTime().Seconds())
	reg.Gauge("noc_links").SetInt(int64(sm.mesh.NumLinks()))

	// DRAM: row locality, queueing and traffic.
	ds := hbm.Stats()
	reg.Counter("dram_requests_total").Add(ds.Reads + ds.Writes)
	reg.Counter("dram_row_hits_total").Add(ds.RowHits)
	reg.Counter("dram_row_misses_total").Add(ds.RowMisses)
	reg.Counter("dram_queue_wait_cycles_total").Add(ds.QueueWaitCycles)
	reg.Gauge("dram_queue_depth_peak").Max(float64(ds.QueueDepthPeak))
	reg.Gauge("dram_row_hit_rate").Set(ds.RowHitRate())
	reg.Counter("dram_read_bytes_total").Add(rep.DRAMReadBytes)
	reg.Counter("dram_write_bytes_total").Add(rep.DRAMWriteBytes)

	// Buffer: evictions and occupancy high-water.
	reg.Counter("buffer_evictions_total").Add(man.Evictions())
	reg.Gauge("buffer_occupancy_highwater_bytes").Max(float64(man.HighWater()))
	reg.Gauge("buffer_capacity_bytes").SetInt(man.Capacity())

	// Simulator totals and the arena's epoch reuse (stamp bumps instead
	// of clears — each counted Round/group reused the same backing
	// slices).
	reg.Counter("sim_cycles_total").Add(rep.Cycles)
	reg.Counter("sim_compute_cycles_total").Add(rep.ComputeCycles)
	reg.Counter("sim_noc_blocked_cycles_total").Add(rep.NoCBlockedCycles)
	reg.Counter("sim_dram_blocked_cycles_total").Add(rep.DRAMBlockedCycles)
	reg.Counter("sim_macs_total").Add(rep.MACs)
	reg.Counter("sim_arena_round_epochs_total").Add(ar.roundStamp - ar.runRound0)
	reg.Counter("sim_arena_group_epochs_total").Add(ar.groupStamp - ar.runGroup0)
	reg.Gauge("sim_pe_utilization").Set(rep.PEUtilization)
	reg.Gauge("sim_compute_utilization").Set(rep.ComputeUtil)
	reg.Gauge("sim_onchip_reuse_ratio").Set(rep.OnChipReuseRatio)

	// Cost oracle: snapshot of the shared oracle's evaluation count (a
	// gauge — the oracle is cumulative across runs, so deltas belong to
	// the caller).
	if st, ok := cost.StatsOf(orc); ok {
		reg.Gauge("cost_oracle_evaluations").SetInt(st.Evaluations)
	}
}
