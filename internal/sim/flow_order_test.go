package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// wantFlowOrder is the link-claim order by definition: flow indices
// stably sorted by (Src, |key|, key, Dst) of each flow's GroupKey.
func wantFlowOrder(flows []buffer.Flow) []int {
	abs := func(k int64) int64 {
		if k < 0 {
			return -k
		}
		return k
	}
	idx := make([]int, len(flows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int {
		x, y := flows[i], flows[j]
		kx, ky := x.GroupKey(), y.GroupKey()
		return cmp.Or(
			cmp.Compare(x.Src, y.Src),
			cmp.Compare(abs(kx), abs(ky)),
			cmp.Compare(kx, ky),
			cmp.Compare(x.Dst, y.Dst),
		)
	})
	return idx
}

// randomFlows draws a Round of n flows over the given source engines:
// a mix of tagged flows (a few shared tags, so multicast groups form),
// untagged ones and exact (Src, key, Dst) duplicates.
func randomFlows(rng *rand.Rand, n int, srcs []int, engines int) []buffer.Flow {
	flows := make([]buffer.Flow, 0, n)
	for len(flows) < n {
		if len(flows) > 0 && rng.Intn(6) == 0 {
			f := flows[rng.Intn(len(flows))]
			f.Bytes = int64(1 + rng.Intn(4096))
			flows = append(flows, f)
			continue
		}
		f := buffer.Flow{
			Src:   srcs[rng.Intn(len(srcs))],
			Dst:   rng.Intn(engines),
			Bytes: int64(1 + rng.Intn(4096)),
		}
		if rng.Intn(3) > 0 {
			f.Tag = int64(1 + rng.Intn(2*engines)) // collides with untagged |key|s
		}
		flows = append(flows, f)
	}
	return flows
}

// TestFlowOrderProperty checks the packed-key order against its
// definition on random Rounds, and the order's NoC timing against the
// map-based reference walk.
func TestFlowOrderProperty(t *testing.T) {
	mesh := noc.NewMesh(8, 8, 16)
	engines := mesh.Engines()
	rng := rand.New(rand.NewSource(1))
	var fs flowSorter // reused across Rounds, as the prep slots do
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		switch trial {
		case 0:
			n = 0
		case 1, 2:
			n = 1
		}
		srcs := []int{0, 5, 63} // sparse sources
		if trial%2 == 1 {
			srcs = make([]int, 1+rng.Intn(engines))
			for i := range srcs {
				srcs[i] = rng.Intn(engines)
			}
		}
		flows := randomFlows(rng, n, srcs, engines)
		fo, err := fs.sort(flows)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make([]int, len(fo.keys))
		for i, k := range fo.keys {
			got[i] = int(k & fo.idxMask)
		}
		if want := wantFlowOrder(flows); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d flows): order\n  got  %v\n  want %v", trial, n, got, want)
		}
		runFlows(t, mesh, flows, int64(trial))
	}
}

// TestFlowOrderOverflow feeds Rounds whose packed keys cannot fit in 64
// bits, or that name a negative engine: sort must report an error, and
// never panic.
func TestFlowOrderOverflow(t *testing.T) {
	many := make([]buffer.Flow, 1<<12)
	for i := range many {
		many[i] = buffer.Flow{Src: i % 4, Dst: 3, Bytes: 1, Tag: 1 << 55}
	}
	for name, flows := range map[string][]buffer.Flow{
		"max tag":        {{Src: 0, Dst: 1, Bytes: 8, Tag: math.MaxInt64}, {Src: 0, Dst: 2, Bytes: 8, Tag: 3}},
		"min tag":        {{Src: 1, Dst: 0, Bytes: 8, Tag: math.MinInt64}},
		"wide fields":    many,
		"negative src":   {{Src: -1, Dst: 0, Bytes: 8, Tag: 2}},
		"negative dst":   {{Src: 0, Dst: -3, Bytes: 8}},
		"huge dst, tags": {{Src: 0, Dst: math.MaxInt32, Bytes: 8, Tag: 1 << 40}, {Src: 0, Dst: 1, Bytes: 8}},
	} {
		var fs flowSorter
		if _, err := fs.sort(flows); err == nil {
			t.Errorf("%s: sort accepted a Round whose keys do not pack", name)
		}
	}
}
