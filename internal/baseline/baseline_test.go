package baseline

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

func smallHW() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mesh = noc.NewMesh(4, 4, 32)
	return cfg
}

func TestEvenSplitBounds(t *testing.T) {
	g := models.MustBuild("resnet50")
	for _, lid := range g.ComputeLayers() {
		l := g.Layer(lid)
		for _, n := range []int{1, 4, 16, 64, 256} {
			p, tiles := evenSplit(l, n)
			if err := p.Validate(l); err != nil {
				t.Fatalf("%s n=%d: %v", l.Name, n, err)
			}
			if tiles > n && tiles > l.Shape.Ho*l.Shape.Wo*l.Shape.Co {
				t.Errorf("%s n=%d: %d tiles", l.Name, n, tiles)
			}
		}
	}
}

func TestEvenSplitPrefersSpatial(t *testing.T) {
	g := graph.New("s")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 56, Wo: 56, Co: 256})
	c := g.AddLayer("c", graph.OpConv, graph.ConvShape(56, 56, 64, 256, 3, 1, 1), in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	p, tiles := evenSplit(g.Layer(c), 64)
	if p.Cop != 256 {
		t.Errorf("even split should not cut channels first: %+v", p)
	}
	if tiles > 64 {
		t.Errorf("tiles = %d > 64", tiles)
	}
}

func TestLSScheduleIsLayerSequential(t *testing.T) {
	g := models.MustBuild("tinybranch")
	cfg := smallHW()
	d, s, err := lsSchedule(g, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Within a round, exactly one layer may appear (LS never co-schedules
	// different layers).
	for i, r := range s.Rounds {
		layers := make(map[int]bool)
		for _, id := range r.Atoms {
			layers[d.Atoms[id].Layer] = true
		}
		if len(layers) != 1 {
			t.Errorf("round %d mixes %d layers", i, len(layers))
		}
	}
	// Layer order must be non-decreasing in topological position.
	lastPos := -1
	pos := map[int]int{}
	for i, lid := range g.Topo() {
		pos[lid] = i
	}
	for _, r := range s.Rounds {
		p := pos[d.Atoms[r.Atoms[0]].Layer]
		if p < lastPos {
			t.Fatalf("layer order regressed")
		}
		lastPos = p
	}
}

func TestLSBatchCoMapping(t *testing.T) {
	// With 64 engines, the tiny model's narrow layers (global pool, FC)
	// cannot fill the chip alone, so enhanced LS must co-map samples.
	g := models.MustBuild("tinyconv")
	cfg := sim.DefaultConfig()
	d, s, err := lsSchedule(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := false
	for _, r := range s.Rounds {
		samples := map[int]bool{}
		for _, id := range r.Atoms {
			samples[d.Atoms[id].Sample] = true
		}
		if len(samples) > 1 {
			mixed = true
		}
	}
	if !mixed {
		t.Error("enhanced LS never co-mapped samples")
	}
}

func TestLayerUtilizationRange(t *testing.T) {
	cfg := engine.Default()
	for _, name := range models.Fig2Workloads {
		g := models.MustBuild(name)
		perLayer, avg := LayerUtilization(nil, g, cfg, engine.KCPartition, 64)
		if len(perLayer) != len(g.ComputeLayers()) {
			t.Fatalf("%s: %d utils for %d layers", name, len(perLayer), len(g.ComputeLayers()))
		}
		for _, u := range perLayer {
			if u < 0 || u > 1 {
				t.Fatalf("%s: utilization %v out of range", name, u)
			}
		}
		// Fig. 2's core claim: naive LS leaves most of the array idle.
		if avg > 0.45 {
			t.Errorf("%s: naive LS average utilization %.2f, want < 0.45 (Fig. 2)", name, avg)
		}
		if avg <= 0 {
			t.Errorf("%s: zero utilization", name)
		}
	}
}

func TestAllBaselinesRun(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	cfg := smallHW()
	for name, run := range map[string]func(*graph.Graph, int, sim.Config) (sim.Report, error){
		"LS": LS, "CNNP": CNNP, "ILPipe": ILPipe, "Rammer": Rammer,
	} {
		rep, err := run(g, 2, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Cycles <= 0 || rep.MACs <= 0 {
			t.Errorf("%s: degenerate report %+v", name, rep)
		}
		if rep.PEUtilization <= 0 || rep.PEUtilization > 1 {
			t.Errorf("%s: utilization %v", name, rep.PEUtilization)
		}
		if rep.Energy.TotalPJ() <= 0 {
			t.Errorf("%s: no energy", name)
		}
	}
}

func TestCNNPEqualsLSAtBatch1(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	cfg := smallHW()
	ls, err := LS(g, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CNNP(g, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Cycles != cp.Cycles {
		t.Errorf("CNN-P batch-1 cycles %d != LS %d (paper: identical mapping)", cp.Cycles, ls.Cycles)
	}
}

func TestCNNPBeatsLSOnThroughput(t *testing.T) {
	g := models.MustBuild("resnet50")
	cfg := sim.DefaultConfig()
	ls, err := LS(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CNNP(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycles >= ls.Cycles {
		t.Errorf("CNN-P batch cycles %d >= LS %d (paper Fig. 9: CNN-P exceeds LS)", cp.Cycles, ls.Cycles)
	}
}

func TestILPipePipelineEconomics(t *testing.T) {
	g := models.MustBuild("resnet50")
	cfg := sim.DefaultConfig()
	b1, err := ILPipe(g, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b16, err := ILPipe(g, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline amortizes fill: 16 samples must cost far less than 16x.
	if b16.Cycles >= 10*b1.Cycles {
		t.Errorf("IL-Pipe batch-16 %d vs batch-1 %d: no pipelining benefit", b16.Cycles, b1.Cycles)
	}
	// IL-Pipe's reuse ratio must be high (its design goal).
	if b16.OnChipReuseRatio < 0.8 {
		t.Errorf("IL-Pipe reuse = %.2f, want >= 0.8", b16.OnChipReuseRatio)
	}
}

func TestILPipeDRAMAdvantage(t *testing.T) {
	// IL-Pipe's design goal is fewer DRAM bytes than CNN-P (which
	// round-trips every tensor).
	g := models.MustBuild("resnet50")
	cfg := sim.DefaultConfig()
	il, err := ILPipe(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CNNP(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ilBytes := il.DRAMReadBytes + il.DRAMWriteBytes
	cpBytes := cp.DRAMReadBytes + cp.DRAMWriteBytes
	if ilBytes >= cpBytes {
		t.Errorf("IL-Pipe DRAM %d >= CNN-P %d", ilBytes, cpBytes)
	}
}

func TestRammerCoLocationBeatsLS(t *testing.T) {
	// On a branchy model with a batch, Rammer's greedy co-location packs
	// independent rTasks that LS leaves serialized.
	g := models.MustBuild("tinybranch")
	cfg := smallHW()
	r, err := Rammer(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := LS(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Co-location compresses the schedule: independent rTasks share
	// Rounds that LS serializes. (It does not always win end-to-end in a
	// barrier-synchronized model — mixing unbalanced rTasks inflates the
	// Round maximum, which is exactly the imbalance SA eliminates.)
	if r.Rounds >= ls.Rounds {
		t.Errorf("Rammer rounds %d >= LS %d (co-location should compress)", r.Rounds, ls.Rounds)
	}
	// Rammer's placement is reuse-oblivious: its NoC traffic travels at
	// least as many byte-hops as LS's aligned zig-zag placement.
	if r.NoCByteHops < ls.NoCByteHops/2 {
		t.Errorf("Rammer byte-hops %d suspiciously low vs LS %d", r.NoCByteHops, ls.NoCByteHops)
	}
}

func TestBalancedPartitionInvariants(t *testing.T) {
	lt := make([]layerTime, 10)
	for i := range lt {
		lt[i] = layerTime{compute: int64(100 * (i + 1)), dramBytes: 100}
	}
	cfg := sim.DefaultConfig()
	for _, k := range []int{1, 2, 3, 5, 10} {
		b := balancedPartition(lt, k, cfg, k)
		if len(b) != k+1 || b[0] != 0 || b[k] != len(lt) {
			t.Fatalf("k=%d: bad bounds %v", k, b)
		}
		for j := 0; j < k; j++ {
			if b[j+1] < b[j] {
				t.Fatalf("k=%d: decreasing bounds %v", k, b)
			}
		}
	}
}

func TestMacBalancedBoundsNonEmpty(t *testing.T) {
	units := scheduleUnits(models.MustBuild("resnet50"))
	for _, s := range []int{2, 7, 31, 64, len(units)} {
		b := macBalancedBounds(units, s)
		if len(b) != s+1 {
			t.Fatalf("s=%d: %d bounds", s, len(b))
		}
		for j := 0; j < s; j++ {
			if b[j+1] <= b[j] {
				t.Fatalf("s=%d: empty stage %d in %v", s, j, b)
			}
		}
	}
}

func TestAllocEnginesSumsToN(t *testing.T) {
	units := scheduleUnits(models.MustBuild("inceptionv3"))
	for _, s := range []int{2, 8, 32} {
		bounds := macBalancedBounds(units, s)
		alloc := allocEngines(units, bounds, s, 64)
		total := 0
		for _, a := range alloc {
			if a < 1 {
				t.Fatalf("s=%d: stage with %d engines", s, a)
			}
			total += a
		}
		if total != 64 {
			t.Fatalf("s=%d: engines sum to %d", s, total)
		}
	}
}
