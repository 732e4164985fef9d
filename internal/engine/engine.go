// Package engine is the single-engine analytical cost model — this
// repository's substitute for the MAESTRO tool the paper uses as its
// Cycle(atom) oracle (Algorithm 1, Sec. V-A).
//
// An engine is a PEx x PEy MAC array plus a vector unit (Fig. 1a). Two
// spatial dataflows from the paper are modeled:
//
//   - KCPartition (NVDLA-style): input channels unrolled along PE rows,
//     output channels along PE columns; H/W/K iterated temporally.
//   - YXPartition (ShiDianNao-style): output rows along PE rows, output
//     columns along PE columns; channels and kernel iterated temporally.
//
// The model reproduces the first-order effects the paper's optimization
// rests on: utilization collapses when the spatially-unrolled extents do
// not fill (or divide by) the array dims, and small temporal tiles are
// dominated by array fill/drain latency. Absolute cycle counts are
// calibrated to be plausible, not to match MAESTRO bit-for-bit.
package engine

import (
	"fmt"
	"math"

	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
)

// Dataflow selects the spatial unrolling strategy of the PE array.
type Dataflow int

const (
	// KCPartition unrolls Ci to PE rows and Co to PE columns (NVDLA).
	KCPartition Dataflow = iota
	// YXPartition unrolls Ho to PE rows and Wo to PE columns (ShiDianNao).
	YXPartition
)

// String returns the paper's name for the dataflow.
func (d Dataflow) String() string {
	switch d {
	case KCPartition:
		return "KC-P"
	case YXPartition:
		return "YX-P"
	case FlexPartition:
		return "Flex-P"
	}
	return fmt.Sprintf("Dataflow(%d)", int(d))
}

// MarshalText returns the dataflow's spelling in the knob table, kcp or
// yxp. FlexPartition has none: it needs an array with PEz set.
func (d Dataflow) MarshalText() ([]byte, error) { return knob.Dataflow.Text(int(d)) }

// UnmarshalText parses a spelling of the knob table. encoding/json and
// flag.TextVar both read a dataflow through it.
func (d *Dataflow) UnmarshalText(b []byte) error { return knob.Dataflow.Parse(b, (*int)(d)) }

// Config describes one tensor engine's microarchitecture.
type Config struct {
	PEx, PEy    int     // PE array rows, columns
	PEz         int     // third spatial dimension for FlexPartition (0/1 = planar array)
	VectorLanes int     // element-wise ops per cycle on the vector unit
	BufferBytes int     // per-engine global buffer (SRAM) capacity
	PortBytes   int     // SRAM port width in bytes per cycle (paper: 64b = 8B)
	FreqMHz     float64 // engine clock
	MACsPerPE   int     // MACs issued per PE per cycle (INT8: 1)
}

// Default returns the paper's engine configuration (Sec. V-A): 16x16 PEs,
// 128 KB SRAM with 64-bit port, 500 MHz.
func Default() Config {
	return Config{PEx: 16, PEy: 16, VectorLanes: 16, BufferBytes: knob.BufferBytes.Def,
		PortBytes: 8, FreqMHz: 500, MACsPerPE: 1}
}

// NumPEs returns the MAC array size across all spatial dimensions.
func (c Config) NumPEs() int { return c.PEx * c.PEy * c.PEzOf() }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PEx <= 0 || c.PEy <= 0 {
		return fmt.Errorf("engine: non-positive PE array %dx%d", c.PEx, c.PEy)
	}
	if c.BufferBytes <= 0 {
		return fmt.Errorf("engine: non-positive buffer size %d", c.BufferBytes)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"VectorLanes", c.VectorLanes}, {"PortBytes", c.PortBytes}, {"MACsPerPE", c.MACsPerPE}} {
		if f.v <= 0 {
			return fmt.Errorf("engine: %s must be positive, got %d", f.name, f.v)
		}
	}
	// NaN fails every comparison, so the clock is checked as !(f > 0).
	if !(c.FreqMHz > 0) || math.IsInf(c.FreqMHz, 1) {
		return fmt.Errorf("engine: FreqMHz must be positive and finite, got %v", c.FreqMHz)
	}
	return nil
}

// fillDrain is the systolic pipeline fill + drain latency charged per
// array pass: operands propagate across PEx rows and results drain across
// PEy columns. This term is what makes tiny tiles inefficient (paper
// Sec. II-B "mismatch").
func (c Config) fillDrain() int64 { return int64(c.PEx + c.PEy) }

// Task describes a unit of work to run on one engine: a sub-tile (atom) of
// one layer. Hp x Wp x Cop is the produced output tile; Ci is the input
// channel extent consumed (atoms always span the full input-channel range,
// see DESIGN.md §3).
type Task struct {
	Kind   graph.OpKind
	Hp, Wp int // output tile spatial extent
	Ci     int // input channels consumed
	Cop    int // output channels produced
	Kh, Kw int // kernel dims
	Stride int
}

// TaskFromLayer builds the Task describing a full layer on one engine.
func TaskFromLayer(l *graph.Layer) Task {
	s := l.Shape
	return Task{Kind: l.Kind, Hp: s.Ho, Wp: s.Wo, Ci: s.Ci, Cop: s.Co,
		Kh: s.Kh, Kw: s.Kw, Stride: s.Stride}
}

// TileTask builds the Task of one hp x wp x cop output tile of layer l.
// A depthwise tile reads one input channel per output channel, so its Ci
// is 1.
func TileTask(l *graph.Layer, hp, wp, cop int) Task {
	s := l.Shape
	t := Task{Kind: l.Kind, Hp: hp, Wp: wp, Ci: s.Ci, Cop: cop,
		Kh: s.Kh, Kw: s.Kw, Stride: s.Stride}
	if l.Kind == graph.OpDepthwiseConv {
		t.Ci = 1
	}
	return t
}

// MACs returns the multiply-accumulate count of the task.
func (t Task) MACs() int64 {
	switch t.Kind {
	case graph.OpConv, graph.OpFC:
		return int64(t.Hp) * int64(t.Wp) * int64(t.Cop) * int64(t.Ci) * int64(t.Kh) * int64(t.Kw)
	case graph.OpDepthwiseConv:
		return int64(t.Hp) * int64(t.Wp) * int64(t.Cop) * int64(t.Kh) * int64(t.Kw)
	}
	return 0
}

// InputBytes returns the input-tile footprint (INT8), including the
// receptive-field halo of strided/kernelled ops.
func (t Task) InputBytes() int64 {
	stride := t.Stride
	if stride <= 0 {
		stride = 1
	}
	hi := (t.Hp-1)*stride + t.Kh
	wi := (t.Wp-1)*stride + t.Kw
	ci := t.Ci
	if t.Kind == graph.OpDepthwiseConv {
		ci = t.Cop
	}
	if t.Kind == graph.OpEltwise {
		return 2 * int64(t.Hp) * int64(t.Wp) * int64(t.Cop)
	}
	return int64(hi) * int64(wi) * int64(ci)
}

// WeightBytes returns the weight footprint needed by the task (INT8).
func (t Task) WeightBytes() int64 {
	switch t.Kind {
	case graph.OpConv, graph.OpFC:
		return int64(t.Ci) * int64(t.Cop) * int64(t.Kh) * int64(t.Kw)
	case graph.OpDepthwiseConv:
		return int64(t.Cop) * int64(t.Kh) * int64(t.Kw)
	}
	return 0
}

// OutputBytes returns the produced tile footprint (INT8).
func (t Task) OutputBytes() int64 {
	return int64(t.Hp) * int64(t.Wp) * int64(t.Cop)
}

// Cost is the engine model's verdict on one task.
type Cost struct {
	Cycles      int64   // compute cycles on this engine, excluding data movement
	MACs        int64   // useful MAC operations
	Utilization float64 // MACs / (Cycles * array size), in [0,1]
}

// Evaluate prices a task on an engine under the given dataflow.
// This is the Cycle() oracle of the paper's Algorithm 1.
func Evaluate(cfg Config, df Dataflow, t Task) Cost {
	var cycles int64
	switch t.Kind {
	case graph.OpConv, graph.OpFC:
		cycles = convCycles(cfg, df, t)
	case graph.OpDepthwiseConv:
		cycles = depthwiseCycles(cfg, df, t)
	case graph.OpPool, graph.OpEltwise, graph.OpActivation, graph.OpGlobalPool:
		cycles = vectorCycles(cfg, t)
	case graph.OpConcat, graph.OpInput:
		cycles = 0
	default:
		cycles = vectorCycles(cfg, t)
	}
	macs := t.MACs()
	util := 0.0
	if cycles > 0 {
		util = float64(macs) / (float64(cycles) * float64(cfg.NumPEs()*cfg.MACsPerPE))
		if util > 1 {
			util = 1
		}
	}
	return Cost{Cycles: cycles, MACs: macs, Utilization: util}
}

// convCycles models a (possibly degenerate FC) convolution.
func convCycles(cfg Config, df Dataflow, t Task) int64 {
	switch df {
	case KCPartition:
		// Ci on rows, Cop on columns; each array pass iterates the
		// output pixels and kernel positions temporally.
		nCi := ceilDiv(t.Ci, cfg.PEx)
		nCo := ceilDiv(t.Cop, cfg.PEy)
		perPass := int64(t.Hp)*int64(t.Wp)*int64(t.Kh)*int64(t.Kw)/int64(cfg.MACsPerPE) + cfg.fillDrain()
		return int64(nCi) * int64(nCo) * perPass
	case YXPartition:
		// Hp on rows, Wp on columns; channels and kernel temporal.
		nH := ceilDiv(t.Hp, cfg.PEx)
		nW := ceilDiv(t.Wp, cfg.PEy)
		perPass := int64(t.Ci)*int64(t.Cop)*int64(t.Kh)*int64(t.Kw)/int64(cfg.MACsPerPE) + cfg.fillDrain()
		return int64(nH) * int64(nW) * perPass
	case FlexPartition:
		return flexConvCycles(cfg, t)
	}
	panic(fmt.Sprintf("engine: unknown dataflow %v", df))
}

// depthwiseCycles models a depthwise convolution, which offers no
// cross-channel reuse. Under KC-P the kernel window is unrolled along the
// rows (the input-channel direction degenerates to 1); under YX-P the
// spatial unrolling is unaffected but the channel loop carries no Ci
// factor.
func depthwiseCycles(cfg Config, df Dataflow, t Task) int64 {
	switch df {
	case KCPartition:
		nK := ceilDiv(t.Kh*t.Kw, cfg.PEx)
		nCo := ceilDiv(t.Cop, cfg.PEy)
		perPass := int64(t.Hp)*int64(t.Wp)/int64(cfg.MACsPerPE) + cfg.fillDrain()
		return int64(nK) * int64(nCo) * perPass
	case YXPartition:
		nH := ceilDiv(t.Hp, cfg.PEx)
		nW := ceilDiv(t.Wp, cfg.PEy)
		perPass := int64(t.Cop)*int64(t.Kh)*int64(t.Kw)/int64(cfg.MACsPerPE) + cfg.fillDrain()
		return int64(nH) * int64(nW) * perPass
	case FlexPartition:
		return flexDepthwiseCycles(cfg, t)
	}
	panic(fmt.Sprintf("engine: unknown dataflow %v", df))
}

// vectorCycles models element-wise work on the vector unit.
func vectorCycles(cfg Config, t Task) int64 {
	elems := int64(t.Hp) * int64(t.Wp) * int64(t.Cop)
	if t.Kind == graph.OpPool || t.Kind == graph.OpGlobalPool {
		// Pooling reads Kh*Kw inputs per output element.
		elems *= int64(t.Kh) * int64(t.Kw)
	}
	return ceilDiv64(elems, int64(cfg.VectorLanes))
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("engine: ceilDiv by non-positive")
	}
	return (a + b - 1) / b
}

func ceilDiv64(a, b int64) int64 {
	return (a + b - 1) / b
}
