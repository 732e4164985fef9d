package buffer

import (
	"reflect"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// TestWeightTagsAboveAtomTagsInSliceOrder pins the group key layout the
// NoC's link-claim order depends on: every weight tag lies above every
// atom tag (producer ID + 1), equal slices share a tag, and tags ascend
// with slice ids. Every group a replay emits carries one of these keys.
func TestWeightTagsAboveAtomTagsInSliceOrder(t *testing.T) {
	d, s := pipeline(t, "tinyresnet", 3, 4)
	m, err := New(d, s, 4, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	tagOf := make(map[int]int64) // slice id -> tag
	weightTags := make(map[int64]bool)
	for id := range d.Atoms {
		w := d.WeightSlice(id)
		if w < 0 {
			continue
		}
		tag := m.weightTag(int32(w))
		if tag <= int64(d.NumAtoms()) {
			t.Fatalf("atom %d: weight tag %d not above the atom tags (max %d)", id, tag, d.NumAtoms())
		}
		if prev, ok := tagOf[w]; ok && prev != tag {
			t.Fatalf("slice %d: tags %d and %d", w, prev, tag)
		}
		tagOf[w] = tag
		weightTags[tag] = true
	}
	if len(tagOf) == 0 {
		t.Fatal("no weighted atoms")
	}
	ids := make([]int, 0, len(tagOf))
	for w := range tagOf {
		ids = append(ids, w)
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if tagOf[ids[i]] <= tagOf[ids[i-1]] {
			t.Fatalf("slices %d, %d got tags %d, %d: not in slice order", ids[i-1], ids[i], tagOf[ids[i-1]], tagOf[ids[i]])
		}
	}

	weightGroups := 0
	for rt := range s.Rounds {
		io, err := m.ExecuteRound(rt, naivePlacement(s, rt))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range io.Groups {
			switch {
			case weightTags[g.Key]:
				weightGroups++
			case g.Key < 1 || g.Key > int64(d.NumAtoms()):
				t.Fatalf("round %d: group key %d is neither an atom nor a weight tag", rt, g.Key)
			}
		}
	}
	if weightGroups == 0 {
		t.Error("replay forwarded no weight slice; the test exercises nothing")
	}
}

// TestWeightTagsAboveAtomTagsInKeyOrder rebuilds each weighted atom's
// (layer, c0, c1) weight key from its layer's shape and tile extents,
// without the DAG's slice ids, and requires the weight tags to keep that
// key order: Conv, FC and depthwise atoms read a slice and no other atom
// does, equal keys share a tag, and tags ascend with the key. This is the
// order the NoC's link-claim tie-breaks were pinned under.
func TestWeightTagsAboveAtomTagsInKeyOrder(t *testing.T) {
	// ResNet-50's searched spec splits output channels, so layers have
	// several channel tiles (tinyresnet's have one each).
	d, s := pipeline(t, "resnet50", 2, 16)
	m, err := New(d, s, 16, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	type wkey struct{ layer, c0, c1 int }
	type tagged struct {
		k   wkey
		tag int64
	}
	var ws []tagged
	for smp := 0; smp < d.Batch; smp++ {
		for _, l := range d.Graph.Layers {
			lo, hi := d.AtomRange(smp, l.ID)
			if lo == hi {
				continue
			}
			weighted := false
			switch l.Kind {
			case graph.OpConv, graph.OpFC, graph.OpDepthwiseConv:
				weighted = true
			}
			cop := d.Atoms[lo].Task.Cop
			nC := (l.Shape.Co + cop - 1) / cop
			for id := lo; id < hi; id++ {
				w := d.WeightSlice(id)
				if !weighted {
					if w >= 0 {
						t.Fatalf("atom %d of %v layer %d reads slice %d", id, l.Kind, l.ID, w)
					}
					continue
				}
				if w < 0 {
					t.Fatalf("atom %d of %v layer %d reads no slice", id, l.Kind, l.ID)
				}
				c0 := (id - lo) % nC * cop
				k := wkey{layer: l.ID, c0: c0, c1: c0 + d.Atoms[id].Task.Cop}
				tag := m.weightTag(int32(w))
				if tag <= int64(d.NumAtoms()) {
					t.Fatalf("atom %d: weight tag %d not above the atom tags (max %d)", id, tag, d.NumAtoms())
				}
				ws = append(ws, tagged{k, tag})
			}
		}
	}
	if len(ws) == 0 {
		t.Fatal("no weighted atoms")
	}
	slices.SortFunc(ws, func(x, y tagged) int {
		if x.k.layer != y.k.layer {
			return x.k.layer - y.k.layer
		}
		if x.k.c0 != y.k.c0 {
			return x.k.c0 - y.k.c0
		}
		return x.k.c1 - y.k.c1
	})
	for i := 1; i < len(ws); i++ {
		same := ws[i].k == ws[i-1].k
		if same && ws[i].tag != ws[i-1].tag || !same && ws[i].tag <= ws[i-1].tag {
			t.Fatalf("keys %+v, %+v got tags %d, %d: not in key order", ws[i-1].k, ws[i].k, ws[i-1].tag, ws[i].tag)
		}
	}
}

// replayIOs replays every Round of s through m with the mapper's
// weight-aware placement, as the simulator does, and returns each
// Round's RoundIO.
func replayIOs(t *testing.T, m *Manager, d *atom.DAG, s *schedule.Schedule, mesh *noc.Mesh) []RoundIO {
	t.Helper()
	mp := mapping.New(mesh, d)
	ios := make([]RoundIO, len(s.Rounds))
	var pl mapping.Result
	for rt, r := range s.Rounds {
		mp.PlaceRound(&pl, r.Atoms, m.Locate, m.HasWeights)
		if err := m.ExecuteRoundInto(rt, &pl, &ios[rt]); err != nil {
			t.Fatal(err)
		}
	}
	return ios
}

// TestResetMatchesNew reuses one Manager across different DAGs,
// schedules, engine counts (the last above 64, so holder bitsets span
// two words) and capacities, and requires every Round's IO to equal a
// fresh Manager's. The third run repeats the first, so state the first
// left behind and the second never touched is still there unless Reset
// cleared it.
func TestResetMatchesNew(t *testing.T) {
	type run struct {
		model     string
		batch     int
		side      int
		capacity  int64
		evictions bool
	}
	runs := []run{
		{"resnet50", 8, 8, 256 << 10, true},
		{"tinyresnet", 1, 4, 16 << 10, false},
		{"resnet50", 8, 8, 256 << 10, true},
		{"resnet50", 8, 10, 64 << 10, true},
	}
	var reused *Manager
	for _, r := range runs {
		mesh := noc.NewMesh(r.side, r.side, 16)
		d, s := pipeline(t, r.model, r.batch, mesh.Engines())
		fresh, err := New(d, s, mesh.Engines(), r.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if reused == nil {
			reused = &Manager{}
		}
		if err := reused.Reset(d, s, mesh.Engines(), r.capacity); err != nil {
			t.Fatal(err)
		}
		want := replayIOs(t, fresh, d, s, mesh)
		got := replayIOs(t, reused, d, s, mesh)
		for rt := range want {
			if !reflect.DeepEqual(got[rt], want[rt]) {
				t.Fatalf("%s b%d on %d engines, round %d: reset Manager\n  %+v\nfresh Manager\n  %+v",
					r.model, r.batch, mesh.Engines(), rt, got[rt], want[rt])
			}
		}
		if reused.Evictions() != fresh.Evictions() || reused.HighWater() != fresh.HighWater() {
			t.Fatalf("%s: evictions/high-water %d/%d after Reset, %d/%d fresh", r.model,
				reused.Evictions(), reused.HighWater(), fresh.Evictions(), fresh.HighWater())
		}
		if r.evictions && fresh.Evictions() == 0 {
			t.Errorf("%s b%d: no evictions; the run does not exercise the victim ranking", r.model, r.batch)
		}
	}
}
