package sim

import (
	"testing"
	"time"

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
}

// TestRunMetricsDoNotPerturb pins the determinism contract: enabling the
// registry must not change a single Report field.
func TestRunMetricsDoNotPerturb(t *testing.T) {
	bare, metered, _ := runInstrumented(t)
	if bare != metered {
		t.Errorf("instrumented Report differs:\nbare:    %+v\nmetered: %+v", bare, metered)
	}
}

// TestPipelineBubblesCounted holds the timing stage at Round 0, inside
// its Trace hook, until prep has filled the ring and waited for a free
// slot: sim_pipeline_full_total must count that wait. Both bubble
// counters are exported, and neither can exceed the Round count.
func TestPipelineBubblesCounted(t *testing.T) {
	g := models.MustBuild("resnet50")
	cfg := DefaultConfig()
	cfg.Mesh = noc.NewMesh(2, 2, 32)
	res := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 1, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: 4, Mode: schedule.Greedy, EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() <= pipelineDepth {
		t.Fatalf("%d Rounds fit in the %d-slot ring", s.NumRounds(), pipelineDepth)
	}
	reg := obs.New()
	cfg.Metrics = reg
	full := reg.Counter("sim_pipeline_full_total")
	sawFull := false
	cfg.Trace = func(tr RoundTrace) {
		if tr.Round != 0 {
			return
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if full.Value() > 0 {
				sawFull = true
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := Run(d, s, cfg); err != nil {
		t.Fatal(err)
	}
	if !sawFull {
		t.Fatal("prep never waited for a free slot while timing held Round 0")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"sim_pipeline_full_total", "sim_pipeline_stalls_total"} {
		v, ok := snap.Counters[name]
		if !ok || v > int64(s.NumRounds()) {
			t.Errorf("%s = %d (exported %v), want at most %d Rounds", name, v, ok, s.NumRounds())
		}
	}
}
