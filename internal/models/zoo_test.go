package models

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

func TestAllModelsBuild(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := Build(name)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if g.NumLayers() < 3 {
				t.Errorf("%s: only %d layers", name, g.NumLayers())
			}
			if g.TotalMACs() <= 0 {
				t.Errorf("%s: non-positive MAC count", name)
			}
			// Every model ends in a classifier; its graph must have
			// exactly one source (the input).
			inputs := 0
			for _, l := range g.Layers {
				if l.Kind == graph.OpInput {
					inputs++
				}
			}
			if inputs != 1 {
				t.Errorf("%s: %d input layers, want 1", name, inputs)
			}
		})
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope"); err == nil {
		t.Error("Build(nope) succeeded")
	}
}

// TestParameterRegimes checks each paper workload lands in the right
// parameter regime (Table I). Exact counts differ from the paper because
// BN/activation layers are fused (see package comment), but the order of
// magnitude and relative ordering must hold.
func TestParameterRegimes(t *testing.T) {
	cases := []struct {
		name     string
		min, max float64 // millions of parameters
	}{
		{"vgg19", 120, 150},      // paper: 137M
		{"resnet50", 20, 32},     // paper: 26M
		{"resnet152", 50, 70},    // paper: 60M
		{"resnet1001", 300, 900}, // paper: 850M
		{"inceptionv3", 18, 32},  // paper: 27M
		{"nasnet", 40, 130},      // paper: 89M
		{"pnasnet", 40, 130},     // paper: 86M
		{"efficientnet", 1.5, 8}, // paper: 2M
	}
	for _, c := range cases {
		g := MustBuild(c.name)
		m := float64(g.TotalParams()) / 1e6
		if m < c.min || m > c.max {
			t.Errorf("%s: %.1fM params, want within [%.0f, %.0f]M", c.name, m, c.min, c.max)
		}
	}
}

// TestStructuralCharacteristics verifies the topological property Table I
// attributes to each workload class.
func TestStructuralCharacteristics(t *testing.T) {
	count := func(g *graph.Graph, k graph.OpKind) int {
		n := 0
		for _, l := range g.Layers {
			if l.Kind == k {
				n++
			}
		}
		return n
	}
	// VGG is a pure cascade: no eltwise, no concat, every layer has at
	// most one consumer.
	vgg := MustBuild("vgg19")
	if count(vgg, graph.OpEltwise) != 0 || count(vgg, graph.OpConcat) != 0 {
		t.Error("vgg19 should have no eltwise/concat layers")
	}
	readers := make([]int, len(vgg.Layers))
	for _, l := range vgg.Layers {
		for _, in := range l.Inputs {
			readers[in]++
		}
	}
	for _, l := range vgg.Layers {
		if readers[l.ID] > 1 {
			t.Errorf("vgg19 layer %s has %d consumers, want <=1", l.Name, readers[l.ID])
		}
	}
	// ResNets have residual adds.
	if count(MustBuild("resnet50"), graph.OpEltwise) != 16 {
		t.Errorf("resnet50 add count = %d, want 16", count(MustBuild("resnet50"), graph.OpEltwise))
	}
	// Inception has concats and no adds.
	inc := MustBuild("inceptionv3")
	if count(inc, graph.OpConcat) != 11 {
		t.Errorf("inceptionv3 concat count = %d, want 11", count(inc, graph.OpConcat))
	}
	// NAS nets have both adds and concats (irregular wiring).
	for _, n := range []string{"nasnet", "pnasnet"} {
		g := MustBuild(n)
		if count(g, graph.OpEltwise) == 0 || count(g, graph.OpConcat) == 0 {
			t.Errorf("%s should have both eltwise and concat layers", n)
		}
	}
	// EfficientNet is depthwise-heavy.
	eff := MustBuild("efficientnet")
	if count(eff, graph.OpDepthwiseConv) != 16 {
		t.Errorf("efficientnet dwconv count = %d, want 16", count(eff, graph.OpDepthwiseConv))
	}
}

// TestResNetDepthOrdering: deeper variants must have strictly greater
// graph depth and layer counts.
func TestResNetDepthOrdering(t *testing.T) {
	r50 := MustBuild("resnet50")
	r152 := MustBuild("resnet152")
	r1001 := MustBuild("resnet1001")
	if !(r50.MaxDepth() < r152.MaxDepth() && r152.MaxDepth() < r1001.MaxDepth()) {
		t.Errorf("depth ordering violated: %d, %d, %d",
			r50.MaxDepth(), r152.MaxDepth(), r1001.MaxDepth())
	}
	if !(r50.NumLayers() < r152.NumLayers() && r152.NumLayers() < r1001.NumLayers()) {
		t.Errorf("layer-count ordering violated: %d, %d, %d",
			r50.NumLayers(), r152.NumLayers(), r1001.NumLayers())
	}
}

// TestShapeConsistency walks every edge and checks producer/consumer
// tensor shapes are compatible.
func TestShapeConsistency(t *testing.T) {
	for _, name := range PaperWorkloads {
		g := MustBuild(name)
		for _, l := range g.Layers {
			if len(l.Inputs) == 0 {
				continue
			}
			switch l.Kind {
			case graph.OpEltwise:
				for _, in := range l.Inputs {
					p := g.Layer(in).Shape
					if p.Ho != l.Shape.Ho || p.Wo != l.Shape.Wo || p.Co != l.Shape.Co {
						t.Errorf("%s/%s: eltwise input %s shape %dx%dx%d != out %dx%dx%d",
							name, l.Name, g.Layer(in).Name, p.Ho, p.Wo, p.Co,
							l.Shape.Ho, l.Shape.Wo, l.Shape.Co)
					}
				}
			case graph.OpConcat:
				sum := 0
				for _, in := range l.Inputs {
					p := g.Layer(in).Shape
					if p.Ho != l.Shape.Ho || p.Wo != l.Shape.Wo {
						t.Errorf("%s/%s: concat input %s spatial %dx%d != out %dx%d",
							name, l.Name, g.Layer(in).Name, p.Ho, p.Wo, l.Shape.Ho, l.Shape.Wo)
					}
					sum += p.Co
				}
				if sum != l.Shape.Co {
					t.Errorf("%s/%s: concat channels %d != out %d", name, l.Name, sum, l.Shape.Co)
				}
			case graph.OpConv, graph.OpDepthwiseConv, graph.OpPool:
				p := g.Layer(l.Inputs[0]).Shape
				if p.Ho != l.Shape.Hi || p.Wo != l.Shape.Wi {
					t.Errorf("%s/%s: input spatial %dx%d != declared Hi/Wi %dx%d",
						name, l.Name, p.Ho, p.Wo, l.Shape.Hi, l.Shape.Wi)
				}
				// VGG's first FC flattens, so only conv-likes check Ci.
				if p.Co != l.Shape.Ci {
					t.Errorf("%s/%s: input channels %d != declared Ci %d",
						name, l.Name, p.Co, l.Shape.Ci)
				}
			}
		}
	}
}
