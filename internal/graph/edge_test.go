package graph

import (
	"strings"
	"testing"
)

func TestOpKindStrings(t *testing.T) {
	for k := OpInput; k <= OpGlobalPool; k++ {
		if strings.HasPrefix(k.String(), "OpKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if !strings.HasPrefix(OpKind(99).String(), "OpKind(") {
		t.Error("unknown kind should fall back to numeric form")
	}
}

func TestIsCompute(t *testing.T) {
	compute := map[OpKind]bool{OpConv: true, OpDepthwiseConv: true, OpFC: true}
	for k := OpInput; k <= OpGlobalPool; k++ {
		if k.IsCompute() != compute[k] {
			t.Errorf("%v IsCompute = %v", k, k.IsCompute())
		}
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	g := New("idem")
	in := g.AddLayer("input", OpInput, Shape{Ho: 4, Wo: 4, Co: 2})
	g.AddLayer("c", OpConv, ConvShape(4, 4, 2, 4, 3, 1, 1), in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
}

func TestAddLayerAfterFinalizePanics(t *testing.T) {
	g := New("sealed")
	g.AddLayer("input", OpInput, Shape{Ho: 1, Wo: 1, Co: 1})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddLayer after Finalize did not panic")
		}
	}()
	g.AddLayer("late", OpConv, ConvShape(1, 1, 1, 1, 1, 1, 0), 0)
}

func TestUseBeforeFinalizePanics(t *testing.T) {
	g := New("raw")
	g.AddLayer("input", OpInput, Shape{Ho: 1, Wo: 1, Co: 1})
	defer func() {
		if recover() == nil {
			t.Error("Topo before Finalize did not panic")
		}
	}()
	g.Topo()
}

func TestPoolAndFCShapes(t *testing.T) {
	p := PoolShape(8, 8, 16, 2, 2, 0)
	if p.Ho != 4 || p.Co != 16 || p.Ci != 16 {
		t.Errorf("PoolShape = %+v", p)
	}
	f := FCShape(128, 10)
	if f.Ci != 128 || f.Co != 10 || f.Ho != 1 || f.Kh != 1 {
		t.Errorf("FCShape = %+v", f)
	}
}
