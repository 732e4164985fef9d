package atomicflow

import (
	"fmt"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/modelio"
)

// fuzzBytes feeds a graph generator from fuzz input: pick(n) consumes
// one byte and returns it mod n, 0 once the bytes run out.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzWindow picks a kernel, stride and padding that fit an h x w input.
func fuzzWindow(b *fuzzBytes, h, w int) (k, stride, pad int) {
	k = 1 + 2*b.pick(4)
	pad = b.pick(k/2 + 1)
	stride = 1 + b.pick(2)
	if min(h, w)+2*pad < k {
		k, pad = 1, 0
	}
	return k, stride, pad
}

// fuzzGraph builds a valid workload from prog: an input of at most
// 32x32x64 and at most 11 more layers. Each is a conv, depthwise conv or
// pool over an earlier tensor, or an eltwise or concat joining earlier
// tensors whose shapes agree (random fan-in, up to 64 concatenated
// channels).
func fuzzGraph(prog []byte) *Graph {
	b := fuzzBytes(prog)
	g := NewGraph("fuzz")
	h, w, c := 1+b.pick(32), 1+b.pick(32), 1+b.pick(64)
	g.AddLayer("input", OpInput, Shape{Hi: h, Wi: w, Ci: c, Ho: h, Wo: w, Co: c})
	for i, n := 0, 1+b.pick(11); i < n; i++ {
		name := fmt.Sprintf("l%d", i)
		src := b.pick(len(g.Layers))
		s := g.Layers[src].Shape
		switch b.pick(5) {
		case 0:
			k, stride, pad := fuzzWindow(&b, s.Ho, s.Wo)
			g.AddLayer(name, OpConv, ConvShape(s.Ho, s.Wo, s.Co, 1+b.pick(64), k, stride, pad), src)
		case 1:
			k, stride, pad := fuzzWindow(&b, s.Ho, s.Wo)
			g.AddLayer(name, OpDepthwiseConv, ConvShape(s.Ho, s.Wo, s.Co, s.Co, k, stride, pad), src)
		case 2:
			k, stride, pad := fuzzWindow(&b, s.Ho, s.Wo)
			g.AddLayer(name, OpPool, PoolShape(s.Ho, s.Wo, s.Co, k, stride, pad), src)
		case 3:
			ins := []int{src}
			for id, l := range g.Layers {
				o := l.Shape
				if id != src && o.Ho == s.Ho && o.Wo == s.Wo && o.Co == s.Co && b.pick(2) == 1 {
					ins = append(ins, id)
				}
			}
			if len(ins) == 1 {
				ins = append(ins, src) // x + x
			}
			g.AddLayer(name, OpEltwise, EltwiseShape(s.Ho, s.Wo, s.Co), ins...)
		case 4:
			ins, ch := []int{src}, s.Co
			for id, l := range g.Layers {
				o := l.Shape
				if id != src && o.Ho == s.Ho && o.Wo == s.Wo && ch+o.Co <= 64 && b.pick(2) == 1 {
					ins, ch = append(ins, id), ch+o.Co
				}
			}
			g.AddLayer(name, OpConcat, Shape{Hi: s.Ho, Wi: s.Wo, Ci: ch, Ho: s.Ho, Wo: s.Wo, Co: ch,
				Kh: 1, Kw: 1, Stride: 1}, ins...)
		}
	}
	return g
}

// FuzzOrchestrate solves small random workloads, round-tripped through
// the exchange format, on a 4x4 mesh. No input may panic, and every
// solve that succeeds must pass Check and lower to a program that passes
// check.Program (Lower).
func FuzzOrchestrate(f *testing.F) {
	for _, seed := range []struct {
		prog          []byte
		batch, iters  uint8
		mode, dataflw bool
	}{
		{nil, 0, 0, false, false},
		{[]byte{31, 31, 15, 10, 1, 0, 0, 32, 1, 0, 1, 0, 0, 2, 3, 1, 0, 3, 0, 1, 4, 1, 1, 1, 1, 2, 2, 0, 1, 0}, 2, 40, false, false},
		{[]byte{7, 13, 63, 11, 1, 1, 2, 1, 1, 0, 2, 1, 3, 0, 1, 2, 4, 1, 1, 1, 0, 3, 1, 1, 0, 0, 1, 0, 4, 2, 1}, 1, 49, true, true},
		{[]byte{0, 0, 0, 5, 0, 4, 0, 3, 0, 0, 0, 0, 3, 1, 1, 4, 0, 1, 1}, 0, 10, true, false},
	} {
		f.Add(seed.prog, seed.batch, seed.iters, seed.mode, seed.dataflw)
	}
	f.Fuzz(func(t *testing.T, prog []byte, batch, iters uint8, greedy, yx bool) {
		g := fuzzGraph(prog)
		if err := g.Finalize(); err != nil {
			t.Fatalf("generated an invalid graph: %v", err)
		}
		data, err := modelio.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		g, err = modelio.Decode(data)
		if err != nil {
			t.Fatalf("exchange round trip: %v", err)
		}
		hw := DefaultHardware()
		hw.Mesh = NewMesh(4, 4, hw.Mesh.LinkBytes)
		opt := Options{Hardware: &hw, Batch: 1 + int(batch%3), SAIters: 1 + int(iters%50)}
		if greedy {
			opt.Mode = ModeGreedy
		}
		if yx {
			hw.Dataflow = YXPartition
		}
		sol, err := Orchestrate(g, opt)
		if err != nil {
			return
		}
		if err := sol.Check(); err != nil {
			t.Fatalf("%s\n%v", data, err)
		}
		if _, err := sol.Lower(); err != nil {
			t.Fatalf("%s\n%v", data, err)
		}
	})
}
