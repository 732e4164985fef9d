package sim

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// wantFlowOrder is the link-claim order by definition: flow indices
// stably sorted by (Src, |key|, key, Dst) of each flow's GroupKey.
func wantFlowOrder(flows []Flow) []int {
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
func randomFlows(rng *rand.Rand, n int, srcs []int, engines int) []Flow {
	flows := make([]Flow, 0, n)
	for len(flows) < n {
		if len(flows) > 0 && rng.Intn(6) == 0 {
			f := flows[rng.Intn(len(flows))]
			f.Bytes = int64(1 + rng.Intn(4096))
			flows = append(flows, f)
			continue
		}
		f := Flow{
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

// member is one (Src, key, Dst) step of a link-claim order.
type member struct {
	src int
	key int64
	dst int
}

// TestFlowOrderProperty checks the group order and each group's
// destination order against the flow order's definition on random
// Rounds, and the grouped walk's NoC timing against the map-based
// reference walk.
func TestFlowOrderProperty(t *testing.T) {
	mesh := noc.NewMesh(8, 8, 16)
	engines := mesh.Engines()
	rng := rand.New(rand.NewSource(1))
	a := newArena(mesh) // reused across Rounds, as the timing stage does
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
		io := groupFlows(flows, engines)
		var got []member
		for _, g := range a.orderGroups(io.Groups) {
			gr := io.Groups[g]
			for wi, word := range io.DestSet(int(g)) {
				for ; word != 0; word &= word - 1 {
					got = append(got, member{gr.Src, gr.Key, wi<<6 | bits.TrailingZeros64(word)})
				}
			}
		}
		var want []member
		for _, i := range wantFlowOrder(flows) {
			f := flows[i]
			m := member{f.Src, f.GroupKey(), f.Dst}
			if len(want) == 0 || want[len(want)-1] != m { // a group reaches each engine once
				want = append(want, m)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d flows): order\n  got  %v\n  want %v", trial, n, got, want)
		}
		runFlows(t, mesh, flows, int64(trial))
	}
}
