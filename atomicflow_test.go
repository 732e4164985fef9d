package atomicflow

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
)

// smallHW returns a 2x2-engine accelerator that keeps API tests fast.
func smallHW() HardwareConfig {
	hw := DefaultHardware()
	hw.Mesh = NewMesh(2, 2, hw.Mesh.LinkBytes)
	return hw
}

func TestLoadModelAndNames(t *testing.T) {
	names := ModelNames()
	if len(names) < 10 {
		t.Fatalf("only %d models", len(names))
	}
	for _, n := range PaperWorkloads() {
		g, err := LoadModel(n)
		if err != nil {
			t.Fatalf("LoadModel(%s): %v", n, err)
		}
		if g.NumLayers() == 0 {
			t.Errorf("%s empty", n)
		}
	}
	if _, err := LoadModel("not-a-model"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestOrchestrateDefaults(t *testing.T) {
	g, err := LoadModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	hw := smallHW()
	sol, err := Orchestrate(g, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Check(); err != nil {
		t.Fatal(err)
	}
	if sol.Report.Cycles <= 0 || sol.Atoms <= 0 || sol.Rounds <= 0 {
		t.Errorf("degenerate solution: %+v", sol)
	}
	if sol.Report.MACs != g.TotalMACs() {
		t.Errorf("MACs = %d, want %d", sol.Report.MACs, g.TotalMACs())
	}
	if len(sol.SATrace) == 0 {
		t.Error("no SA trace")
	}
	if sol.SearchTime <= 0 {
		t.Error("no search time recorded")
	}
}

func TestOrchestrateNilGraph(t *testing.T) {
	if _, err := Orchestrate(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestOrchestrateNoWork checks that a graph with nothing to execute, an
// input read only by a concat, is ErrNothingToExecute rather than a
// zero-cycle solution.
func TestOrchestrateNoWork(t *testing.T) {
	g := NewGraph("nowork")
	in := g.AddLayer("input", OpInput, Shape{Hi: 4, Wi: 4, Ci: 2, Ho: 4, Wo: 4, Co: 2})
	g.AddLayer("cat", OpConcat, Shape{Hi: 4, Wi: 4, Ci: 2, Ho: 4, Wo: 4, Co: 2, Kh: 1, Kw: 1, Stride: 1}, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	sol, err := Orchestrate(g, Options{})
	if err == nil {
		t.Fatalf("accepted, with %d Rounds and %d cycles", sol.Rounds, sol.Report.Cycles)
	}
	if !errors.Is(err, ErrNothingToExecute) {
		t.Errorf("error %v is not ErrNothingToExecute", err)
	}
}

func TestOrchestrateInvalidHardware(t *testing.T) {
	g, _ := LoadModel("tinyconv")
	hw := smallHW()
	hw.Engine.PEx = 0
	if _, err := Orchestrate(g, Options{Hardware: &hw}); err == nil {
		t.Error("invalid hardware accepted")
	}
}

func TestOrchestrateBatchAndModes(t *testing.T) {
	g, _ := LoadModel("tinybranch")
	hw := smallHW()
	greedy, err := Orchestrate(g, Options{Batch: 3, Hardware: &hw, Mode: ModeGreedy})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Orchestrate(g, Options{Batch: 3, Hardware: &hw, Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	for _, sol := range []*Solution{greedy, dp} {
		if err := sol.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if float64(dp.Report.Cycles) > 1.05*float64(greedy.Report.Cycles) {
		t.Errorf("DP cycles %d much worse than greedy %d", dp.Report.Cycles, greedy.Report.Cycles)
	}
}

func TestBaselineWrappers(t *testing.T) {
	g, _ := LoadModel("tinyresnet")
	hw := smallHW()
	for name, run := range map[string]func(*Graph, int, HardwareConfig) (Report, error){
		"LS": RunLS, "CNNP": RunCNNP, "ILPipe": RunILPipe, "Rammer": RunRammer,
	} {
		rep, err := run(g, 0, hw) // batch 0 coerces to 1
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Cycles <= 0 {
			t.Errorf("%s: no cycles", name)
		}
	}
}

func TestPublicGraphConstruction(t *testing.T) {
	g := NewGraph("api")
	in := g.AddLayer("input", OpInput, Shape{Hi: 8, Wi: 8, Ci: 4, Ho: 8, Wo: 8, Co: 4})
	c := g.AddLayer("conv", OpConv, ConvShape(8, 8, 4, 8, 3, 1, 1), in)
	p := g.AddLayer("pool", OpPool, PoolShape(8, 8, 8, 2, 2, 0), c)
	g.AddLayer("fc", OpFC, FCShape(8, 10), p)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	hw := smallHW()
	sol, err := Orchestrate(g, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Cycles <= 0 {
		t.Error("no cycles")
	}
	if !strings.Contains(g.Summary(), "api") {
		t.Errorf("Summary = %q", g.Summary())
	}
}

func TestSolutionReproducible(t *testing.T) {
	g, _ := LoadModel("tinyconv")
	hw := smallHW()
	a, err := Orchestrate(g, Options{Hardware: &hw, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Orchestrate(g, Options{Hardware: &hw, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Cycles != b.Report.Cycles || a.Atoms != b.Atoms || a.Rounds != b.Rounds {
		t.Errorf("same seed diverged: %+v vs %+v", a.Report, b.Report)
	}
}

func TestUnionGraphsOrchestration(t *testing.T) {
	a, _ := LoadModel("tinyconv")
	b, _ := LoadModel("tinybranch")
	u, err := UnionGraphs("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}
	hw := smallHW()
	sol, err := Orchestrate(u, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Check(); err != nil {
		t.Fatal(err)
	}
	if sol.Report.MACs != a.TotalMACs()+b.TotalMACs() {
		t.Errorf("union MACs = %d, want %d", sol.Report.MACs, a.TotalMACs()+b.TotalMACs())
	}
	// Co-locating two tenants must not exceed serving them sequentially
	// by more than scheduling noise.
	sa, err := Orchestrate(a, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Orchestrate(b, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	seq := sa.Report.Cycles + sb.Report.Cycles
	if float64(sol.Report.Cycles) > 1.1*float64(seq) {
		t.Errorf("union cycles %d >> sequential %d", sol.Report.Cycles, seq)
	}
}

func TestModelRoundTripThroughAPI(t *testing.T) {
	g, _ := LoadModel("tinyresnet")
	var buf strings.Builder
	if err := WriteModel(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadModel(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.TotalMACs() != g.TotalMACs() {
		t.Error("round trip changed the model")
	}
}

func TestDataflowOption(t *testing.T) {
	g, _ := LoadModel("tinyconv")
	kc := smallHW()
	kc.Dataflow = KCPartition
	yx := smallHW()
	yx.Dataflow = YXPartition
	a, err := Orchestrate(g, Options{Hardware: &kc})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Orchestrate(g, Options{Hardware: &yx})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Cycles == b.Report.Cycles {
		t.Error("dataflow option had no effect")
	}
}

func TestOrchestrateOracleStats(t *testing.T) {
	g, _ := LoadModel("resnet50")
	sol, err := Orchestrate(g, Options{SAIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.OracleStats
	if st.Evaluations == 0 {
		t.Fatalf("default oracle counted no evaluations: %+v", st)
	}

	// A caller-supplied oracle is used as-is and keeps its counts across
	// runs.
	orc := NewCostOracle()
	hw := DefaultHardware()
	hw.Oracle = orc
	first, err := Orchestrate(g, Options{SAIters: 200, Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Orchestrate(g, Options{SAIters: 200, Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if second.OracleStats.Evaluations <= first.OracleStats.Evaluations {
		t.Errorf("shared oracle counts not cumulative: %d then %d",
			first.OracleStats.Evaluations, second.OracleStats.Evaluations)
	}
	if first.OracleStats.Evaluations != st.Evaluations {
		t.Errorf("caller-supplied oracle counted %d evaluations, the default %d",
			first.OracleStats.Evaluations, st.Evaluations)
	}
	if second.Report.Cycles != first.Report.Cycles {
		t.Errorf("a reused oracle changed the result: %d vs %d cycles",
			second.Report.Cycles, first.Report.Cycles)
	}
}

// TestLoweringMatchesReport checks that Solution.Lower is the lowering of
// the simulated solve, not a second one: on default hardware and under
// NaiveMapping, the program passes check.Program against the Report
// (every buffer within capacity, the Report's Rounds, DRAM bytes and NoC
// byte-hops), and it has one SEND per NoC flow the simulator timed.
func TestLoweringMatchesReport(t *testing.T) {
	for _, naive := range []bool{false, true} {
		for _, model := range []string{"tinyresnet", "resnet50"} {
			for _, batch := range []int{1, 8} {
				g, err := LoadModel(model)
				if err != nil {
					t.Fatal(err)
				}
				hw := DefaultHardware()
				hw.NaiveMapping = naive
				hw.Metrics = NewMetrics()
				sol, err := Orchestrate(g, Options{Batch: batch, Hardware: &hw})
				if err != nil {
					t.Fatal(err)
				}
				if err := sol.Check(); err != nil {
					t.Fatalf("%s b%d naive=%t: %v", model, batch, naive, err)
				}
				p, err := sol.Lower()
				if err != nil {
					t.Fatalf("%s b%d naive=%t: %v", model, batch, naive, err)
				}
				if got, want := int64(p.Stats().Sends), sol.Metrics.Counter("noc_flows_total"); got != want {
					t.Errorf("%s b%d naive=%t: %d SENDs, %d NoC flows", model, batch, naive, got, want)
				}
			}
		}
	}
}

// TestSolutionSpec checks that Solution.Spec returns the partitions the
// solution's atoms were built from: the seeded search run alone chooses
// the same spec, and a caller's edits to the returned map never reach
// the Solution.
func TestSolutionSpec(t *testing.T) {
	g, err := LoadModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	hw := smallHW()
	hw.Oracle = NewCostOracle()
	sol, err := Orchestrate(g, Options{Hardware: &hw, SAIters: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{MaxIters: 100, Seed: 3, Oracle: hw.Oracle}).Spec
	spec := sol.Spec()
	if !maps.Equal(spec, want) {
		t.Fatalf("Spec() = %v, the search alone chose %v", spec, want)
	}
	for lid := range spec {
		delete(spec, lid)
	}
	if !maps.Equal(sol.Spec(), want) {
		t.Fatal("clearing the returned spec changed the Solution's")
	}
}
