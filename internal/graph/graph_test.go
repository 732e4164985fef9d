package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds input -> A -> (B, C) -> Add, a minimal branching graph.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	in := g.AddLayer("input", OpInput, Shape{Ho: 8, Wo: 8, Co: 3})
	a := g.AddLayer("a", OpConv, ConvShape(8, 8, 3, 16, 3, 1, 1), in)
	b := g.AddLayer("b", OpConv, ConvShape(8, 8, 16, 16, 3, 1, 1), a)
	c := g.AddLayer("c", OpConv, ConvShape(8, 8, 16, 16, 1, 1, 0), a)
	g.AddLayer("add", OpEltwise, EltwiseShape(8, 8, 16), b, c)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestDepthComputation(t *testing.T) {
	g := diamond(t)
	want := map[string]int{"input": 0, "a": 1, "b": 2, "c": 2, "add": 3}
	for _, l := range g.Layers {
		if l.Depth != want[l.Name] {
			t.Errorf("layer %s depth = %d, want %d", l.Name, l.Depth, want[l.Name])
		}
	}
	if g.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d, want 3", g.MaxDepth())
	}
}

// consumers returns the IDs of the layers that read layer id's output.
func consumers(g *Graph, id int) []int {
	var out []int
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if in == id {
				out = append(out, l.ID)
			}
		}
	}
	return out
}

func TestConsumers(t *testing.T) {
	g := diamond(t)
	cons := consumers(g, 1) // layer "a"
	if len(cons) != 2 {
		t.Fatalf("consumers of a = %v, want 2 entries", cons)
	}
	if len(consumers(g, 4)) != 0 {
		t.Errorf("sink layer has consumers: %v", consumers(g, 4))
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(t)
	pos := make(map[int]int)
	for i, id := range g.Topo() {
		pos[id] = i
	}
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if pos[in] >= pos[l.ID] {
				t.Errorf("topo order violates edge %d -> %d", in, l.ID)
			}
		}
	}
}

func TestConvShapeArithmetic(t *testing.T) {
	cases := []struct {
		hi, k, stride, pad int
		wantHo             int
	}{
		{224, 7, 2, 3, 112},
		{56, 3, 1, 1, 56},
		{56, 1, 1, 0, 56},
		{28, 3, 2, 1, 14},
		{7, 7, 1, 0, 1},
	}
	for _, c := range cases {
		s := ConvShape(c.hi, c.hi, 3, 8, c.k, c.stride, c.pad)
		if s.Ho != c.wantHo || s.Wo != c.wantHo {
			t.Errorf("ConvShape(hi=%d,k=%d,s=%d,p=%d): Ho=%d, want %d",
				c.hi, c.k, c.stride, c.pad, s.Ho, c.wantHo)
		}
	}
}

func TestMACsAndParams(t *testing.T) {
	g := New("m")
	in := g.AddLayer("input", OpInput, Shape{Ho: 4, Wo: 4, Co: 2})
	g.AddLayer("conv", OpConv, ConvShape(4, 4, 2, 8, 3, 1, 1), in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	conv := g.Layer(1)
	// 4*4 output positions * 8 out channels * 2 in channels * 3*3 kernel
	if got, want := conv.MACs(), int64(4*4*8*2*3*3); got != want {
		t.Errorf("MACs = %d, want %d", got, want)
	}
	if got, want := conv.WeightBytes(), int64(2*8*3*3); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
	if got, want := conv.OutputBytes(), int64(4*4*8); got != want {
		t.Errorf("OutputBytes = %d, want %d", got, want)
	}
}

func TestDepthwiseMACs(t *testing.T) {
	g := New("dw")
	in := g.AddLayer("input", OpInput, Shape{Ho: 8, Wo: 8, Co: 16})
	s := ConvShape(8, 8, 16, 16, 3, 1, 1)
	g.AddLayer("dw", OpDepthwiseConv, s, in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Layer(1).MACs(), int64(8*8*16*3*3); got != want {
		t.Errorf("depthwise MACs = %d, want %d", got, want)
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if err := New("e").Finalize(); err == nil {
			t.Error("empty graph finalized without error")
		}
	})
	t.Run("duplicate names", func(t *testing.T) {
		g := New("d")
		in := g.AddLayer("x", OpInput, Shape{Ho: 1, Wo: 1, Co: 1})
		g.AddLayer("x", OpConv, ConvShape(1, 1, 1, 1, 1, 1, 0), in)
		if err := g.Finalize(); err == nil {
			t.Error("duplicate names accepted")
		}
	})
	t.Run("orphan layer", func(t *testing.T) {
		g := New("o")
		g.AddLayer("in", OpInput, Shape{Ho: 1, Wo: 1, Co: 1})
		g.Layers = append(g.Layers, &Layer{ID: 1, Name: "orphan", Kind: OpConv,
			Shape: ConvShape(1, 1, 1, 1, 1, 1, 0)})
		if err := g.Finalize(); err == nil {
			t.Error("orphan conv accepted")
		}
	})
	t.Run("eltwise single input", func(t *testing.T) {
		g := New("e1")
		in := g.AddLayer("in", OpInput, Shape{Ho: 2, Wo: 2, Co: 2})
		g.AddLayer("add", OpEltwise, EltwiseShape(2, 2, 2), in)
		if err := g.Finalize(); err == nil {
			t.Error("single-input eltwise accepted")
		}
	})
}

func TestAddLayerPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddLayer with future input ID did not panic")
		}
	}()
	g := New("p")
	g.AddLayer("bad", OpConv, ConvShape(1, 1, 1, 1, 1, 1, 0), 5)
}

func TestDOTAndSummary(t *testing.T) {
	g := diamond(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", "n1 -> n2", "n3 -> n4"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	sum := g.Summary()
	if !strings.Contains(sum, "5 layers") || !strings.Contains(sum, "depth 3") {
		t.Errorf("Summary = %q", sum)
	}
}

// Property: for any chain length n, depth of layer i equals i and
// MaxDepth equals n.
func TestChainDepthProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		g := New("chain")
		prev := g.AddLayer("input", OpInput, Shape{Ho: 8, Wo: 8, Co: 4})
		for i := 0; i < n; i++ {
			prev = g.AddLayer(
				"conv"+string(rune('a'+i%26))+string(rune('0'+i/26)),
				OpConv, ConvShape(8, 8, 4, 4, 3, 1, 1), prev)
		}
		if err := g.Finalize(); err != nil {
			return false
		}
		for i, l := range g.Layers {
			if l.Depth != i {
				return false
			}
		}
		return g.MaxDepth() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: ConvShape output dims are always positive for valid configs
// and shrink monotonically with stride.
func TestConvShapeProperty(t *testing.T) {
	f := func(hiRaw, kRaw, sRaw uint8) bool {
		hi := int(hiRaw%128) + 8
		k := int(kRaw%5)*2 + 1 // odd kernel 1..9
		if k > hi {
			k = 1
		}
		pad := k / 2
		s1 := ConvShape(hi, hi, 3, 8, k, 1, pad)
		s2 := ConvShape(hi, hi, 3, 8, k, 2, pad)
		return s1.Ho == hi && s2.Ho <= s1.Ho && s2.Ho > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
