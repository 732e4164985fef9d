package engine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

func convTask(hp, wp, ci, cop, k int) Task {
	return Task{Kind: graph.OpConv, Hp: hp, Wp: wp, Ci: ci, Cop: cop,
		Kh: k, Kw: k, Stride: 1}
}

func TestPerfectlyMatchedTileHighUtil(t *testing.T) {
	cfg := Default()
	// Ci=16 rows, Cop=16 cols, big spatial extent: near-perfect KC-P fit.
	c := Evaluate(cfg, KCPartition, convTask(32, 32, 16, 16, 3))
	if c.Utilization < 0.95 {
		t.Errorf("matched KC-P tile utilization = %.3f, want >= 0.95", c.Utilization)
	}
	// Hp=Wp=32 multiples of 16: near-perfect YX-P fit.
	c = Evaluate(cfg, YXPartition, convTask(32, 32, 64, 64, 3))
	if c.Utilization < 0.95 {
		t.Errorf("matched YX-P tile utilization = %.3f, want >= 0.95", c.Utilization)
	}
}

func TestMismatchedTileLowUtil(t *testing.T) {
	cfg := Default()
	// Only 4 output channels on a 16-wide column dim: <= 25% + fill loss.
	c := Evaluate(cfg, KCPartition, convTask(32, 32, 16, 4, 3))
	if c.Utilization > 0.26 {
		t.Errorf("co=4 KC-P utilization = %.3f, want <= 0.26", c.Utilization)
	}
	// Single output pixel rows: YX-P wastes nearly the whole array.
	c = Evaluate(cfg, YXPartition, convTask(1, 1, 256, 256, 3))
	if c.Utilization > 1.0/float64(cfg.NumPEs())+1e-9 {
		t.Errorf("1x1-tile YX-P utilization = %.4f, want <= 1/%d", c.Utilization, cfg.NumPEs())
	}
}

func TestFillDrainDominatesTinyTiles(t *testing.T) {
	cfg := Default()
	// A 1x1 spatial tile of a 1x1 conv: per-pass work is 1 cycle but
	// fill/drain is 32, so utilization must be tiny even with matched
	// channels.
	c := Evaluate(cfg, KCPartition, convTask(1, 1, 16, 16, 1))
	if c.Utilization > 0.05 {
		t.Errorf("tiny-tile utilization = %.3f, want <= 0.05", c.Utilization)
	}
}

func TestFCDataflowAsymmetry(t *testing.T) {
	cfg := Default()
	fc := Task{Kind: graph.OpFC, Hp: 1, Wp: 1, Ci: 4096, Cop: 4096, Kh: 1, Kw: 1, Stride: 1}
	kc := Evaluate(cfg, KCPartition, fc)
	yx := Evaluate(cfg, YXPartition, fc)
	if kc.Cycles >= yx.Cycles {
		t.Errorf("FC should favor KC-P: kc=%d cycles, yx=%d cycles", kc.Cycles, yx.Cycles)
	}
}

func TestEarlyLayerDataflowAsymmetry(t *testing.T) {
	cfg := Default()
	// First conv of an ImageNet model: Ci=3 starves KC-P rows while YX-P
	// thrives on the large spatial extent.
	early := convTask(112, 112, 3, 64, 7)
	kc := Evaluate(cfg, KCPartition, early)
	yx := Evaluate(cfg, YXPartition, early)
	if yx.Utilization <= kc.Utilization {
		t.Errorf("Ci=3 layer: YX util %.3f should exceed KC util %.3f",
			yx.Utilization, kc.Utilization)
	}
}

func TestDepthwiseCheaperThanDense(t *testing.T) {
	cfg := Default()
	dw := Task{Kind: graph.OpDepthwiseConv, Hp: 28, Wp: 28, Ci: 1, Cop: 144,
		Kh: 3, Kw: 3, Stride: 1}
	dense := convTask(28, 28, 144, 144, 3)
	for _, df := range []Dataflow{KCPartition, YXPartition} {
		cd := Evaluate(cfg, df, dw)
		cc := Evaluate(cfg, df, dense)
		if cd.Cycles >= cc.Cycles {
			t.Errorf("%v: depthwise %d cycles >= dense %d cycles", df, cd.Cycles, cc.Cycles)
		}
		if cd.MACs >= cc.MACs {
			t.Errorf("%v: depthwise MACs %d >= dense %d", df, cd.MACs, cc.MACs)
		}
	}
}

func TestVectorUnitOps(t *testing.T) {
	cfg := Default()
	add := Task{Kind: graph.OpEltwise, Hp: 8, Wp: 8, Ci: 32, Cop: 32, Kh: 1, Kw: 1, Stride: 1}
	c := Evaluate(cfg, KCPartition, add)
	if want := int64(8 * 8 * 32 / 16); c.Cycles != want {
		t.Errorf("eltwise cycles = %d, want %d", c.Cycles, want)
	}
	if c.MACs != 0 || c.Utilization != 0 {
		t.Errorf("eltwise should report no MACs/util, got %d/%f", c.MACs, c.Utilization)
	}
	concat := Task{Kind: graph.OpConcat, Hp: 8, Wp: 8, Cop: 64}
	if c := Evaluate(cfg, KCPartition, concat); c.Cycles != 0 {
		t.Errorf("concat cycles = %d, want 0 (zero-copy)", c.Cycles)
	}
}

func TestFootprints(t *testing.T) {
	tk := convTask(8, 8, 32, 64, 3)
	// Input halo: (8-1)*1+3 = 10 per dim.
	if got, want := tk.InputBytes(), int64(10*10*32); got != want {
		t.Errorf("InputBytes = %d, want %d", got, want)
	}
	if got, want := tk.WeightBytes(), int64(32*64*3*3); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
	if got, want := tk.OutputBytes(), int64(8*8*64); got != want {
		t.Errorf("OutputBytes = %d, want %d", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := Default()
	bad.PEx = 0
	if err := bad.Validate(); err == nil {
		t.Error("PEx=0 accepted")
	}
	bad = Default()
	bad.BufferBytes = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative buffer accepted")
	}
	// Each bad field is named in the error, with its value.
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.VectorLanes = 0 }, "VectorLanes must be positive, got 0"},
		{func(c *Config) { c.PortBytes = -8 }, "PortBytes must be positive, got -8"},
		{func(c *Config) { c.MACsPerPE = 0 }, "MACsPerPE must be positive, got 0"},
		{func(c *Config) { c.FreqMHz = math.NaN() }, "FreqMHz must be positive and finite, got NaN"},
		{func(c *Config) { c.FreqMHz = math.Inf(1) }, "FreqMHz must be positive and finite, got +Inf"},
		{func(c *Config) { c.FreqMHz = 0 }, "FreqMHz must be positive and finite, got 0"},
	} {
		bad := Default()
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v, want %q", err, tc.want)
		}
	}
}

// Property: utilization is always in [0,1] and cycles are positive for any
// valid conv task under both dataflows.
func TestEvaluateBoundsProperty(t *testing.T) {
	cfg := Default()
	f := func(hp, wp, ci, cop, kRaw uint8) bool {
		tk := convTask(int(hp%64)+1, int(wp%64)+1, int(ci)*2+1, int(cop)*2+1, int(kRaw%3)*2+1)
		for _, df := range []Dataflow{KCPartition, YXPartition} {
			c := Evaluate(cfg, df, tk)
			if c.Cycles <= 0 || c.Utilization < 0 || c.Utilization > 1 {
				return false
			}
			if c.MACs != tk.MACs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: doubling the spatially-unrolled extents of a perfectly
// aligned tile cannot decrease utilization under KC-P.
func TestAlignedScalingProperty(t *testing.T) {
	cfg := Default()
	f := func(m uint8) bool {
		mult := int(m%4) + 1
		small := convTask(16, 16, 16*mult, 16*mult, 3)
		big := convTask(16, 16, 32*mult, 32*mult, 3)
		cs := Evaluate(cfg, KCPartition, small)
		cb := Evaluate(cfg, KCPartition, big)
		return cb.Utilization >= cs.Utilization-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: cycles are monotone in output-channel count (more work never
// takes fewer cycles), for both dataflows.
func TestMonotonicityProperty(t *testing.T) {
	cfg := Default()
	f := func(coRaw uint8) bool {
		co := int(coRaw) + 1
		a := convTask(14, 14, 64, co, 3)
		b := convTask(14, 14, 64, co+16, 3)
		for _, df := range []Dataflow{KCPartition, YXPartition} {
			if Evaluate(cfg, df, a).Cycles > Evaluate(cfg, df, b).Cycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
