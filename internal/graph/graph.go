// Package graph defines the layer-level representation of a DNN inference
// workload: a directed acyclic graph whose vertices are tensor-producing
// layers (CONV, FC, pooling, element-wise ops, ...) and whose edges are
// tensor data dependencies.
//
// This is the input representation of the atomic-dataflow framework
// (paper Sec. III): the front end — in the paper an ONNX parser, here the
// programmatic model zoo in internal/models — produces a *Graph, and all
// later stages (atom generation, scheduling, mapping) consume it.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind enumerates the layer operator types the framework understands.
type OpKind int

const (
	// OpInput is a pseudo-layer holding the network input tensor.
	OpInput OpKind = iota
	// OpConv is a standard 2D convolution.
	OpConv
	// OpDepthwiseConv is a depthwise (per-channel) 2D convolution.
	OpDepthwiseConv
	// OpFC is a fully-connected layer. Per the paper (Sec. IV-A footnote)
	// it is treated as a CONV with Ho=Hi=Wo=Wi=Kh=Kw=1.
	OpFC
	// OpPool is max/average pooling (executed by the vector unit).
	OpPool
	// OpEltwise is an element-wise binary op such as residual addition.
	OpEltwise
	// OpConcat concatenates inputs along the channel dimension.
	OpConcat
	// OpActivation covers ReLU/sigmoid/BN-style element-wise unary layers.
	OpActivation
	// OpGlobalPool reduces the spatial dimensions to 1x1.
	OpGlobalPool
)

var opKindNames = map[OpKind]string{
	OpInput:         "Input",
	OpConv:          "Conv",
	OpDepthwiseConv: "DWConv",
	OpFC:            "FC",
	OpPool:          "Pool",
	OpEltwise:       "Eltwise",
	OpConcat:        "Concat",
	OpActivation:    "Act",
	OpGlobalPool:    "GlobalPool",
}

// String returns the mnemonic name of the operator kind.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsCompute reports whether the kind runs on the PE array (MAC-dominated).
// Non-compute kinds run on the vector unit and are cheap by comparison.
func (k OpKind) IsCompute() bool {
	switch k {
	case OpConv, OpDepthwiseConv, OpFC:
		return true
	}
	return false
}

// Shape describes the tensor computation of one layer using the paper's
// CONV parameter convention (Fig. 1b): input feature map Hi x Wi x Ci,
// output feature map Ho x Wo x Co, kernels Kh x Kw, stride S.
type Shape struct {
	Hi, Wi, Ci int // input fmap height, width, channels
	Ho, Wo, Co int // output fmap height, width, channels
	Kh, Kw     int // kernel height, width
	Stride     int // spatial stride (same in both dims)
	Pad        int // symmetric zero padding
}

// MACs returns the number of multiply-accumulate operations of the layer.
// Element-wise and pooling layers return 0 (they run on the vector unit).
func (l *Layer) MACs() int64 {
	s := l.Shape
	switch l.Kind {
	case OpConv, OpFC:
		return int64(s.Ho) * int64(s.Wo) * int64(s.Co) * int64(s.Ci) * int64(s.Kh) * int64(s.Kw)
	case OpDepthwiseConv:
		return int64(s.Ho) * int64(s.Wo) * int64(s.Co) * int64(s.Kh) * int64(s.Kw)
	}
	return 0
}

// WeightBytes returns the weight footprint of the layer in bytes,
// assuming an INT8 (1 byte/element) datapath as in the paper's prototype.
func (l *Layer) WeightBytes() int64 {
	s := l.Shape
	switch l.Kind {
	case OpConv, OpFC:
		return int64(s.Ci) * int64(s.Co) * int64(s.Kh) * int64(s.Kw)
	case OpDepthwiseConv:
		return int64(s.Co) * int64(s.Kh) * int64(s.Kw)
	}
	return 0
}

// OutputBytes returns the output feature-map footprint in bytes (INT8).
func (l *Layer) OutputBytes() int64 {
	s := l.Shape
	return int64(s.Ho) * int64(s.Wo) * int64(s.Co)
}

// InputBytes returns the input feature-map footprint in bytes (INT8),
// counting each distinct producer tensor once.
func (l *Layer) InputBytes() int64 {
	s := l.Shape
	return int64(s.Hi) * int64(s.Wi) * int64(s.Ci)
}

// Layer is one vertex of the workload graph.
type Layer struct {
	ID     int    // dense index, assigned by the Graph
	Name   string // human-readable name, unique within the graph
	Kind   OpKind
	Shape  Shape
	Inputs []int // IDs of producer layers, in argument order

	// Depth is the longest path (in edges) from the graph source to this
	// layer; computed by Finalize. Layers at equal depth have no
	// dependency on each other and may run in parallel (paper Fig. 6a).
	Depth int
}

// Graph is a DNN inference workload: a DAG of layers.
// Build one with New/AddLayer and call Finalize before use.
type Graph struct {
	Name   string
	Layers []*Layer

	topo      []int // topological order of layer IDs
	finalized bool
}

// New returns an empty workload graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddLayer appends a layer and returns its assigned ID.
// Input IDs must refer to already-added layers (this enforces acyclicity
// by construction).
func (g *Graph) AddLayer(name string, kind OpKind, shape Shape, inputs ...int) int {
	if g.finalized {
		panic("graph: AddLayer after Finalize")
	}
	for _, in := range inputs {
		if in < 0 || in >= len(g.Layers) {
			panic(fmt.Sprintf("graph: layer %q references unknown input %d", name, in))
		}
	}
	id := len(g.Layers)
	g.Layers = append(g.Layers, &Layer{
		ID:     id,
		Name:   name,
		Kind:   kind,
		Shape:  shape,
		Inputs: append([]int(nil), inputs...),
	})
	return id
}

// Finalize validates the graph and computes the topological order and
// per-layer depths. It must be called once after construction.
func (g *Graph) Finalize() error {
	if g.finalized {
		return nil
	}
	if len(g.Layers) == 0 {
		return fmt.Errorf("graph %q: no layers", g.Name)
	}
	if err := g.validate(); err != nil {
		return err
	}
	// Layers were added producers-first, so ID order is already a valid
	// topological order.
	g.topo = make([]int, len(g.Layers))
	for i := range g.topo {
		g.topo[i] = i
	}
	for _, id := range g.topo {
		l := g.Layers[id]
		d := 0
		for _, in := range l.Inputs {
			if pd := g.Layers[in].Depth + 1; pd > d {
				d = pd
			}
		}
		l.Depth = d
	}
	g.finalized = true
	return nil
}

func (g *Graph) validate() error {
	names := make(map[string]bool, len(g.Layers))
	for _, l := range g.Layers {
		if names[l.Name] {
			return fmt.Errorf("graph %q: duplicate layer name %q", g.Name, l.Name)
		}
		names[l.Name] = true
		s := l.Shape
		if l.Kind == OpInput {
			if len(l.Inputs) != 0 {
				return fmt.Errorf("layer %q: input layer cannot have producers", l.Name)
			}
			continue
		}
		if len(l.Inputs) == 0 {
			return fmt.Errorf("layer %q: non-input layer has no producers", l.Name)
		}
		if s.Ho <= 0 || s.Wo <= 0 || s.Co <= 0 {
			return fmt.Errorf("layer %q: non-positive output shape %dx%dx%d", l.Name, s.Ho, s.Wo, s.Co)
		}
		if l.Kind.IsCompute() && (s.Kh <= 0 || s.Kw <= 0 || s.Ci <= 0) {
			return fmt.Errorf("layer %q: invalid kernel/channel params", l.Name)
		}
		if l.Kind == OpEltwise && len(l.Inputs) < 2 {
			return fmt.Errorf("layer %q: eltwise needs >=2 inputs", l.Name)
		}
	}
	return nil
}

// Topo returns layer IDs in topological (producer-before-consumer) order.
// The returned slice must not be modified.
func (g *Graph) Topo() []int {
	g.mustFinal()
	return g.topo
}

// MaxDepth returns the largest layer depth in the graph.
func (g *Graph) MaxDepth() int {
	g.mustFinal()
	d := 0
	for _, l := range g.Layers {
		if l.Depth > d {
			d = l.Depth
		}
	}
	return d
}

// Layer returns the layer with the given ID.
func (g *Graph) Layer(id int) *Layer { return g.Layers[id] }

// NumLayers returns the number of layers including the input pseudo-layer.
func (g *Graph) NumLayers() int { return len(g.Layers) }

// ComputeLayers returns the IDs of PE-array (MAC-dominated) layers in
// topological order.
func (g *Graph) ComputeLayers() []int {
	g.mustFinal()
	var ids []int
	for _, id := range g.topo {
		if g.Layers[id].Kind.IsCompute() {
			ids = append(ids, id)
		}
	}
	return ids
}

// TotalMACs sums MACs over all layers.
func (g *Graph) TotalMACs() int64 {
	var t int64
	for _, l := range g.Layers {
		t += l.MACs()
	}
	return t
}

// TotalParams sums weight elements over all layers (INT8: 1 byte each).
func (g *Graph) TotalParams() int64 {
	var t int64
	for _, l := range g.Layers {
		t += l.WeightBytes()
	}
	return t
}

// DOT renders the graph in Graphviz DOT format, useful for debugging
// irregular NAS topologies.
func (g *Graph) DOT() string {
	g.mustFinal()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, l := range g.Layers {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%s %dx%dx%d\"];\n",
			l.ID, l.Name, l.Kind, l.Shape.Ho, l.Shape.Wo, l.Shape.Co)
	}
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", in, l.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Summary returns a short human-readable description of the graph.
func (g *Graph) Summary() string {
	g.mustFinal()
	kinds := make(map[OpKind]int)
	for _, l := range g.Layers {
		kinds[l.Kind]++
	}
	keys := make([]OpKind, 0, len(kinds))
	for k := range kinds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, kinds[k]))
	}
	return fmt.Sprintf("%s: %d layers (%s), depth %d, %.1f GMACs, %.1fM params",
		g.Name, len(g.Layers), strings.Join(parts, " "), g.MaxDepth(),
		float64(g.TotalMACs())/1e9, float64(g.TotalParams())/1e6)
}

func (g *Graph) mustFinal() {
	if !g.finalized {
		panic("graph: use before Finalize")
	}
}

// ConvShape is a convenience constructor for CONV layer shapes: it derives
// the output spatial dims from input dims, kernel, stride and padding.
func ConvShape(hi, wi, ci, co, k, stride, pad int) Shape {
	ho := (hi+2*pad-k)/stride + 1
	wo := (wi+2*pad-k)/stride + 1
	return Shape{Hi: hi, Wi: wi, Ci: ci, Ho: ho, Wo: wo, Co: co, Kh: k, Kw: k, Stride: stride, Pad: pad}
}

// FCShape builds the degenerate CONV shape of a fully-connected layer.
func FCShape(ci, co int) Shape {
	return Shape{Hi: 1, Wi: 1, Ci: ci, Ho: 1, Wo: 1, Co: co, Kh: 1, Kw: 1, Stride: 1}
}

// PoolShape builds the shape of a pooling layer.
func PoolShape(hi, wi, c, k, stride, pad int) Shape {
	ho := (hi+2*pad-k)/stride + 1
	wo := (wi+2*pad-k)/stride + 1
	return Shape{Hi: hi, Wi: wi, Ci: c, Ho: ho, Wo: wo, Co: c, Kh: k, Kw: k, Stride: stride, Pad: pad}
}

// EltwiseShape builds the shape of an element-wise layer over HxWxC tensors.
func EltwiseShape(h, w, c int) Shape {
	return Shape{Hi: h, Wi: w, Ci: c, Ho: h, Wo: w, Co: c, Kh: 1, Kw: 1, Stride: 1}
}
