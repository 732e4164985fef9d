package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// fast returns a Config that exercises each experiment's full code path
// on a reduced workload set, so the suite stays CI-sized.
func fast(workloads ...string) Config {
	return Config{Workloads: workloads, SAIters: 200, Mode: schedule.Greedy}
}

func find(rows []StrategyResult, workload, strategy, dataflow string) *StrategyResult {
	for i := range rows {
		r := &rows[i]
		if r.Workload == workload && r.Strategy == strategy && r.Dataflow == dataflow {
			return r
		}
	}
	return nil
}

func TestFig2Shape(t *testing.T) {
	rows, err := Fig2(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		// The paper's core motivation: naive LS wastes most of the chip
		// (13.5-26.9% average utilization).
		if r.Average <= 0.02 || r.Average > 0.45 {
			t.Errorf("%s: naive LS avg util %.3f outside the under-utilization regime", r.Workload, r.Average)
		}
	}
}

func TestFig5aConcentration(t *testing.T) {
	rows, err := Fig5a(fast("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.CV > 0.45 {
		t.Errorf("CV = %.3f, want concentrated (< 0.45)", r.CV)
	}
	// Most atoms must fall in the central bins (0.5x-1.5x of the mean).
	total, central := 0, 0
	for bin, n := range r.Histogram {
		total += n
		if bin >= 2 && bin <= 5 {
			central += n
		}
	}
	if float64(central) < 0.6*float64(total) {
		t.Errorf("only %d/%d atoms within 0.5-1.5x mean", central, total)
	}
}

func TestFig5bSAvsGA(t *testing.T) {
	res, err := Fig5b(fast("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SATrace) == 0 || len(res.GATrace) == 0 {
		t.Fatal("missing traces")
	}
	// Paper: SA stops at a variance no worse than GA's.
	if res.SAFinal > res.GAFinal*1.25 {
		t.Errorf("SA final Var %.3g much worse than GA %.3g", res.SAFinal, res.GAFinal)
	}
}

func TestFig8LatencyOrdering(t *testing.T) {
	rows, err := Fig8(fast("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	for _, df := range []string{"KC-P", "YX-P"} {
		ad := find(rows, "resnet50", "AD", df)
		ls := find(rows, "resnet50", "LS", df)
		il := find(rows, "resnet50", "IL-Pipe", df)
		if ad == nil || ls == nil || il == nil {
			t.Fatalf("%s: missing rows", df)
		}
		if ad.Report.TimeMS >= ls.Report.TimeMS {
			t.Errorf("%s: AD %.2fms not faster than LS %.2fms", df, ad.Report.TimeMS, ls.Report.TimeMS)
		}
		if ad.Report.TimeMS >= il.Report.TimeMS {
			t.Errorf("%s: AD %.2fms not faster than IL-Pipe %.2fms", df, ad.Report.TimeMS, il.Report.TimeMS)
		}
	}
	// Paper's ranges: AD/CNN-P(=LS) in 1.45-2.30x, AD/IL-Pipe 1.42-3.78x.
	// Our simulator lands near these; assert a generous envelope.
	ad := find(rows, "resnet50", "AD", "KC-P").Report.TimeMS
	ls := find(rows, "resnet50", "LS", "KC-P").Report.TimeMS
	if r := ls / ad; r < 1.2 || r > 6 {
		t.Errorf("AD speedup over LS = %.2fx, want within [1.2, 6]", r)
	}
}

func TestFig9ThroughputOrdering(t *testing.T) {
	cfg := fast("resnet50")
	cfg.Batch = 8
	rows, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := find(rows, "resnet50", "AD", "KC-P")
	cp := find(rows, "resnet50", "CNN-P", "KC-P")
	ls := find(rows, "resnet50", "LS", "KC-P")
	if ad.Report.TimeMS >= cp.Report.TimeMS {
		t.Errorf("AD %.2fms not faster than CNN-P %.2fms", ad.Report.TimeMS, cp.Report.TimeMS)
	}
	// Paper: CNN-P exceeds LS in all throughput cases.
	if cp.Report.TimeMS >= ls.Report.TimeMS {
		t.Errorf("CNN-P %.2fms not faster than LS %.2fms", cp.Report.TimeMS, ls.Report.TimeMS)
	}
}

func TestFig10StagesHelp(t *testing.T) {
	cfg := fast("resnet50")
	cfg.Batch = 2
	rows, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.TotalGain <= 1 {
		t.Errorf("total gain %.2fx, want > 1", r.TotalGain)
	}
	// Each stage must not hurt (small tolerance for interaction noise).
	for name, gain := range map[string]float64{"SA": r.SAGain, "reuse": r.ReuseGain, "DP": r.DPGain} {
		if gain < 0.95 {
			t.Errorf("stage %s gain %.2fx, want >= 0.95", name, gain)
		}
	}
	// On-chip reuse is a first-order effect in this simulator.
	if r.ReuseGain <= 1.0 {
		t.Errorf("reuse gain %.2fx, want > 1", r.ReuseGain)
	}
}

func TestFig11EnergyOrdering(t *testing.T) {
	cfg := fast("resnet50")
	cfg.Batch = 4
	rows, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := find(rows, "resnet50", "AD", "KC-P").Report.Energy.TotalMJ()
	ls := find(rows, "resnet50", "LS", "KC-P").Report.Energy.TotalMJ()
	cp := find(rows, "resnet50", "CNN-P", "KC-P").Report.Energy.TotalMJ()
	// Paper Fig 11: AD among the most energy-efficient; LS and CNN-P
	// worse (they round-trip tensors through DRAM).
	if ad >= ls || ad >= cp {
		t.Errorf("AD energy %.1f mJ not below LS %.1f / CNN-P %.1f", ad, ls, cp)
	}
}

func TestFig12UShape(t *testing.T) {
	cfg := fast("resnet50")
	cfg.Batch = 1
	rows, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := SweetSpot(rows, "resnet50", 1)
	// Paper: the sweet spot is an intermediate grid (4x4-8x8), never the
	// monolithic array and never the finest slicing.
	if grid <= 1 || grid >= 16 {
		t.Errorf("sweet spot at %dx%d, want intermediate", grid, grid)
	}
	// Monolithic must lose to the sweet spot by a real margin.
	var mono, best float64
	for _, p := range rows {
		if p.Batch != 1 {
			continue
		}
		if p.Grid == 1 {
			mono = p.TimeMS
		}
		if p.Grid == grid {
			best = p.TimeMS
		}
	}
	if mono <= best {
		t.Errorf("monolithic %.2fms not slower than sweet spot %.2fms", mono, best)
	}
}

func TestFig13DiminishingReturns(t *testing.T) {
	cfg := fast("resnet50")
	rows, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKB := map[int]float64{}
	for _, p := range rows {
		byKB[p.BufferKB] = p.TimeMS
	}
	// Bigger buffers help overall...
	if byKB[512] > byKB[32]*1.02 {
		t.Errorf("512KB (%.2fms) worse than 32KB (%.2fms)", byKB[512], byKB[32])
	}
	// ...but the 128->512KB gain is smaller than the 32->128KB gain
	// (paper: growth slows beyond 128 KB).
	gainSmall := byKB[32] - byKB[128]
	gainLarge := byKB[128] - byKB[512]
	if gainLarge > gainSmall+0.01 {
		t.Errorf("late gain %.3fms exceeds early gain %.3fms; no flattening", gainLarge, gainSmall)
	}
}

func TestTable1Characterization(t *testing.T) {
	var sb strings.Builder
	cfg := Config{Out: &sb}
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.ParamsMillions <= 0 || r.GMACs <= 0 || r.Characteristic == "" {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if !strings.Contains(sb.String(), "resnet1001") {
		t.Error("printed table missing resnet1001")
	}
}

func TestTable2ADWins(t *testing.T) {
	cfg := fast("resnet50", "vgg19")
	cfg.Batch = 8
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		ad := r.ComputeUtil["AD"]
		for _, strat := range []string{"LS", "CNN-P", "IL-Pipe"} {
			if ad <= r.ComputeUtil[strat] {
				t.Errorf("%s: AD util %.2f not above %s %.2f",
					r.Workload, ad, strat, r.ComputeUtil[strat])
			}
		}
		// Paper: NoC overhead 9.4-17.6%; allow a wider envelope.
		if r.NoCOverheadAD > 0.35 {
			t.Errorf("%s: NoC overhead %.2f too high", r.Workload, r.NoCOverheadAD)
		}
		// Paper: on-chip reuse 54.1-90.8%.
		if r.ReuseRatioAD < 0.4 {
			t.Errorf("%s: reuse ratio %.2f too low", r.Workload, r.ReuseRatioAD)
		}
	}
}

func TestFPGAOrdering(t *testing.T) {
	cfg := fast()
	cfg.Batch = 4
	rows, err := FPGA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]map[string]float64{}
	for _, r := range rows {
		if fps[r.Workload] == nil {
			fps[r.Workload] = map[string]float64{}
		}
		fps[r.Workload][r.Strategy] = r.FPS
	}
	// Paper Sec V-D ordering AD > Rammer > LS reproduces on ResNet-50.
	// On VGG our engine model prices LS's big spatially-split tiles as
	// efficiently as AD's atoms, so with only 4 large engines the three
	// strategies converge (recorded in EXPERIMENTS.md); assert AD stays
	// within a whisker instead of strictly winning.
	w := "resnet50"
	if !(fps[w]["AD"] > fps[w]["Rammer"] && fps[w]["Rammer"] > fps[w]["LS"]) {
		t.Errorf("%s: fps ordering violated: %+v", w, fps[w])
	}
	if r := fps[w]["AD"] / fps[w]["LS"]; r < 1.05 || r > 8 {
		t.Errorf("%s: AD/LS fps ratio %.2f outside [1.05, 8]", w, r)
	}
	if r := fps["vgg19"]["AD"] / fps["vgg19"]["LS"]; r < 0.9 {
		t.Errorf("vgg19: AD/LS fps ratio %.2f collapsed below 0.9", r)
	}
}

// SweetSpot returns the grid side minimizing time for one workload/batch
// within a Fig12 result set.
func SweetSpot(points []Fig12Point, workload string, batch int) (grid int, timeMS float64) {
	timeMS = math.MaxFloat64
	for _, p := range points {
		if p.Workload == workload && p.Batch == batch && p.TimeMS < timeMS {
			grid, timeMS = p.Grid, p.TimeMS
		}
	}
	return grid, timeMS
}
