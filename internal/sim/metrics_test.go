package sim

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// runInstrumented simulates a small model twice — once bare, once with a
// fresh registry — and returns both Reports plus the metrics snapshot. The
// scheduler and the simulator share one oracle, whose counters the
// metered run exports.
func runInstrumented(t *testing.T) (bare, metered Report, snap obs.Snapshot) {
	t.Helper()
	g := models.MustBuild("tinyresnet")
	cfg := DefaultConfig()
	cfg.Mesh = noc.NewMesh(2, 2, 32)
	cfg.Oracle = cost.Default()
	res := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 2, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: 4, Mode: schedule.Greedy, EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
		Oracle: cfg.Oracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err = Run(d, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	cfg.Metrics = reg
	metered, err = Run(d, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bare, metered, reg.Snapshot()
}

func TestRunMetricsPopulated(t *testing.T) {
	_, rep, snap := runInstrumented(t)

	if got := snap.Counter("sim_rounds_total"); got != int64(rep.Rounds) {
		t.Errorf("sim_rounds_total = %d, want %d", got, rep.Rounds)
	}
	if got := snap.Counter("sim_cycles_total"); got != rep.Cycles {
		t.Errorf("sim_cycles_total = %d, want %d", got, rep.Cycles)
	}

	// Per-engine busy cycles: at least one engine computed, and the busy
	// total equals the sum of per-Round compute across engines.
	var busy int64
	for e := 0; e < 4; e++ {
		busy += snap.Counter(obs.Name("sim_engine_busy_cycles", "engine", e))
	}
	if busy == 0 {
		t.Error("no engine busy cycles recorded")
	}

	// Busy + idle must tile the Rounds exactly: engines x Σ span.
	var spanSum int64
	for e := 0; e < 4; e++ {
		spanSum += snap.Counter(obs.Name("sim_engine_busy_cycles", "engine", e))
		spanSum += snap.Counter(obs.Name("sim_engine_idle_cycles", "engine", e))
	}
	if want := 4 * rep.Cycles; spanSum != want {
		t.Errorf("busy+idle = %d, want engines x cycles = %d", spanSum, want)
	}

	if got := snap.Counter("noc_link_bytes_total"); got == 0 {
		t.Error("noc_link_bytes_total = 0, want > 0")
	}
	if got := snap.Counter("noc_byte_hops_total"); got != rep.NoCByteHops {
		t.Errorf("noc_byte_hops_total = %d, want %d", got, rep.NoCByteHops)
	}
	if got := snap.Counter("dram_row_hits_total"); got == 0 {
		t.Error("dram_row_hits_total = 0, want > 0")
	}
	if got := snap.Counter("dram_read_bytes_total"); got != rep.DRAMReadBytes {
		t.Errorf("dram_read_bytes_total = %d, want %d", got, rep.DRAMReadBytes)
	}
	hw := snap.Gauge("buffer_occupancy_highwater_bytes")
	if hw <= 0 {
		t.Errorf("buffer high-water = %v, want > 0", hw)
	}
	if cap := snap.Gauge("buffer_capacity_bytes"); hw > cap {
		t.Errorf("high-water %v exceeds capacity %v", hw, cap)
	}

	// Barrier-wait histogram observed one value per atom execution.
	bw, ok := snap.Histograms["sim_barrier_wait_cycles"]
	if !ok || bw.Count == 0 {
		t.Fatalf("barrier wait histogram missing or empty: %+v", bw)
	}
	if got := snap.Gauge("sim_pe_utilization"); got != rep.PEUtilization {
		t.Errorf("sim_pe_utilization = %v, want %v", got, rep.PEUtilization)
	}
	if got := snap.Gauge("cost_oracle_evaluations"); got <= 0 {
		t.Errorf("cost_oracle_evaluations = %v, want > 0", got)
	}
	if got := snap.Counter("sim_arena_round_epochs_total"); got != int64(rep.Rounds) {
		t.Errorf("arena round epochs = %d, want %d", got, rep.Rounds)
	}
}

// TestRunMetricsDoNotPerturb pins the determinism contract: enabling the
// registry must not change a single Report field.
func TestRunMetricsDoNotPerturb(t *testing.T) {
	bare, metered, _ := runInstrumented(t)
	if bare != metered {
		t.Errorf("instrumented Report differs:\nbare:    %+v\nmetered: %+v", bare, metered)
	}
}
