package schedule

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/check"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// siblingsGraph: input feeds A and B (same depth); both feed an add.
// A has many atoms, B few — rule 2 must pull B's atoms into A's rounds
// once A alone cannot fill the engines.
func siblingsGraph(t *testing.T) (*atom.DAG, int, int) {
	t.Helper()
	g := graph.New("sib")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 16, Wo: 4, Co: 4})
	a := g.AddLayer("a", graph.OpConv, graph.ConvShape(16, 4, 4, 4, 1, 1, 0), in)
	bl := g.AddLayer("b", graph.OpConv, graph.ConvShape(16, 4, 4, 4, 1, 1, 0), in)
	g.AddLayer("add", graph.OpEltwise, graph.EltwiseShape(16, 4, 4), a, bl)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := atom.Spec{
		a:  {Hp: 2, Wp: 4, Cop: 4}, // 8 atoms
		bl: {Hp: 8, Wp: 4, Cop: 4}, // 2 atoms
	}
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	return d, a, bl
}

func TestRule2SameDepthSiblings(t *testing.T) {
	d, a, bl := siblingsGraph(t)
	s, err := Build(d, Options{Engines: 5, Mode: Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	// With 5 engines and 8+2 same-depth atoms, some round must mix
	// layers a and b (rule 2 fills the gap left by a's remainder).
	mixed := false
	for _, r := range s.Rounds {
		seenA, seenB := false, false
		for _, id := range r.Atoms {
			switch d.Atoms[id].Layer {
			case a:
				seenA = true
			case bl:
				seenB = true
			}
		}
		if seenA && seenB {
			mixed = true
		}
	}
	if !mixed {
		t.Error("no round mixed same-depth siblings (rule 2 inert)")
	}
}

func TestDPUndoLogIntegrity(t *testing.T) {
	// Running DP twice over the same DAG must not corrupt shared state:
	// the second Build sees a fresh frontier and produces the identical
	// schedule (the lookahead's apply/rollback must be perfectly
	// balanced).
	d, _, _ := siblingsGraph(t)
	opt := Options{Engines: 3, Mode: DP, Lookahead: 4, fanout: 5,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition}
	s1, err := Build(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumRounds() != s2.NumRounds() {
		t.Fatalf("rounds differ: %d vs %d", s1.NumRounds(), s2.NumRounds())
	}
	for i := range s1.Rounds {
		for j := range s1.Rounds[i].Atoms {
			if s1.Rounds[i].Atoms[j] != s2.Rounds[i].Atoms[j] {
				t.Fatalf("round %d differs", i)
			}
		}
	}
}

// TestFromRoundsValidation checks that FromRounds rejects an illegal
// Round list with check.Rounds' own error; internal/check's table test
// covers every kind of violation.
func TestFromRoundsValidation(t *testing.T) {
	d, a, _ := siblingsGraph(t)
	lo, _ := d.AtomRange(0, a)
	rounds := [][]int{{lo}, {lo}}
	want := check.Rounds(d, rounds, 4)
	_, err := FromRounds(d, rounds, Options{Engines: 4, EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("FromRounds error %v, check.Rounds says %v", err, want)
	}
}

func TestFromRoundsAcceptsValid(t *testing.T) {
	d, _, _ := siblingsGraph(t)
	s, err := Build(d, Options{Engines: 4, Mode: Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([][]int, len(s.Rounds))
	for i, r := range s.Rounds {
		rounds[i] = r.Atoms
	}
	s2, err := FromRounds(d, rounds, Options{Engines: 4,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	if s2.MakespanLB() != s.MakespanLB() {
		t.Errorf("round-tripped makespan %d != %d", s2.MakespanLB(), s.MakespanLB())
	}
}

// frontier is the scheduler's frontier recomputed from first principles:
// from the scheduled set alone, with none of the incremental bookkeeping.
type frontier struct {
	ready       map[int][]int // pair -> ready atom IDs, ascending
	pending     []int
	activeDepth []int
	indeg       []int32 // per row: unscheduled producers
}

func (st *state) rebuildFrontier() frontier {
	f := frontier{
		ready:       map[int][]int{},
		pending:     make([]int, len(st.pending)),
		activeDepth: make([]int, len(st.activeDepth)),
		indeg:       make([]int32, st.d.NumRows()),
	}
	for r := range f.indeg {
		lo, _ := st.d.RowAtoms(r)
		deps, _ := depsOf(st.d, lo)
		for _, dep := range deps {
			if !st.scheduled[dep] {
				f.indeg[r]++
			}
		}
	}
	traversed := make([]bool, len(st.pending))
	for id, a := range st.d.Atoms {
		p := a.Sample*st.layers + a.Layer
		if a.Task.Kind == graph.OpInput {
			continue // virtual: complete from the start, never traversed
		}
		if st.scheduled[id] {
			traversed[p] = true
			continue
		}
		f.pending[p]++
		ready := true
		deps, _ := depsOf(st.d, id)
		for _, dep := range deps {
			ready = ready && st.scheduled[dep]
		}
		if ready {
			f.ready[p] = append(f.ready[p], id) // atoms visit in ID order
		}
	}
	for p, done := range traversed {
		if done && f.pending[p] > 0 {
			f.activeDepth[p/st.layers*st.depths+st.g.Layer(p%st.layers).Depth]++
		}
	}
	return f
}

// checkFrontier compares the incremental frontier with a rebuild.
func (st *state) checkFrontier() error {
	want := st.rebuildFrontier()
	if len(st.readyPairs) != len(want.ready) {
		return fmt.Errorf("%d ready pairs, rebuild has %d", len(st.readyPairs), len(want.ready))
	}
	for i, p := range st.readyPairs {
		if st.readyAt[p] != i {
			return fmt.Errorf("pair %d at %d of the pair list, readyAt says %d", p, i, st.readyAt[p])
		}
		if _, ok := want.ready[p]; !ok {
			return fmt.Errorf("pair %d listed, rebuild has no ready atoms there", p)
		}
	}
	total := 0
	for p, k := range st.nready {
		if lst := st.appendReady(nil, p, k); !slices.Equal(lst, want.ready[p]) {
			return fmt.Errorf("pair %d ready %v, rebuild %v", p, lst, want.ready[p])
		}
		total += k
	}
	set := 0
	for _, w := range st.ready {
		set += bits.OnesCount64(w)
	}
	if set != total {
		return fmt.Errorf("%d ready bits set, the pairs count %d", set, total)
	}
	if !slices.Equal(st.pending, want.pending) {
		return fmt.Errorf("pending %v, rebuild %v", st.pending, want.pending)
	}
	if !slices.Equal(st.activeDepth, want.activeDepth) {
		return fmt.Errorf("activeDepth %v, rebuild %v", st.activeDepth, want.activeDepth)
	}
	if !slices.Equal(st.indeg, want.indeg) {
		return fmt.Errorf("row in-degrees %v, rebuild %v", st.indeg, want.indeg)
	}
	return nil
}

func TestActiveDepthIncremental(t *testing.T) {
	// Property: after any interleaving of apply/rollback — here a full DP
	// build, whose lookahead nests them several levels deep — the
	// incrementally-maintained frontier (pair list, ready bitset and
	// per-pair counts, pending counts and activeDepth counters) must equal
	// a from-scratch rebuild at every Round boundary.
	for _, model := range []string{"tinyresnet", "tinybranch", "pnascell"} {
		d := dagFor(t, model, 2)
		opt := Options{Engines: 3, Mode: DP, Lookahead: 3, fanout: 5,
			EngineCfg: engine.Default(), Dataflow: engine.KCPartition}
		st := newState(d, opt)
		if err := st.checkFrontier(); err != nil {
			t.Fatalf("%s: initial frontier: %v", model, err)
		}
		for round := 0; st.remaining > 0; round++ {
			comb := st.dpPick()
			if len(comb) == 0 {
				t.Fatalf("%s: deadlock with %d remaining", model, st.remaining)
			}
			st.apply(comb)
			st.commit()
			if err := st.checkFrontier(); err != nil {
				t.Fatalf("%s: round %d: %v", model, round, err)
			}
		}
	}
}
