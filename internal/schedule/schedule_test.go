package schedule

import (
	"testing"
	"testing/quick"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/check"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

func opts(n int, m Mode) Options {
	return Options{Engines: n, Mode: m, EngineCfg: engine.Default(), Dataflow: engine.KCPartition}
}

func dagFor(t *testing.T, model string, batch int) *atom.DAG {
	t.Helper()
	g := models.MustBuild(model)
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkRounds asserts the schedule is a legal execution of the DAG on n
// engines (check.Rounds) and that AtomRound records each atom's Round.
func checkRounds(t *testing.T, d *atom.DAG, s *Schedule, n int) {
	t.Helper()
	rounds := make([][]int, len(s.Rounds))
	for i, r := range s.Rounds {
		rounds[i] = r.Atoms
	}
	if err := check.Rounds(d, rounds, n); err != nil {
		t.Fatal(err)
	}
	for tIdx, r := range rounds {
		for _, id := range r {
			if s.AtomRound[id] != tIdx {
				t.Fatalf("AtomRound[%d] = %d, want %d", id, s.AtomRound[id], tIdx)
			}
		}
	}
}

func TestGreedyValidSchedules(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell"} {
		d := dagFor(t, model, 2)
		s, err := Build(d, opts(4, Greedy))
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		checkRounds(t, d, s, 4)
	}
}

func TestDPValidSchedules(t *testing.T) {
	for _, model := range []string{"tinyresnet", "pnascell"} {
		d := dagFor(t, model, 2)
		s, err := Build(d, opts(4, DP))
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		checkRounds(t, d, s, 4)
	}
}

// TestDPValidSchedulesAtScale validates DP schedules of paper-scale DAGs:
// resnet50 and inceptionv3 at batch 8 on 64 engines.
func TestDPValidSchedulesAtScale(t *testing.T) {
	for _, model := range []string{"resnet50", "inceptionv3"} {
		d := dagFor(t, model, 8)
		s, err := Build(d, opts(64, DP))
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		checkRounds(t, d, s, 64)
	}
}

func TestDPNeverWorseThanGreedy(t *testing.T) {
	for _, model := range []string{"tinyresnet", "tinybranch", "pnascell"} {
		d := dagFor(t, model, 2)
		sg, err := Build(d, opts(4, Greedy))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := Build(d, opts(4, DP))
		if err != nil {
			t.Fatal(err)
		}
		// Small tolerance: lookahead uses an estimate, so tiny regressions
		// are possible in principle; they must stay negligible.
		if float64(sd.MakespanLB()) > 1.05*float64(sg.MakespanLB()) {
			t.Errorf("%s: DP makespan %d worse than greedy %d",
				model, sd.MakespanLB(), sg.MakespanLB())
		}
	}
}

func TestChainPipelining(t *testing.T) {
	// A deep cascade (VGG-like) where each layer has 4 atoms on 4 engines:
	// atom-level dependencies must let the scheduler overlap consecutive
	// layers (layer fusion), so the schedule takes fewer rounds than
	// #layers * ceil(atoms/engines) once warmed up.
	g := graph.New("cascade")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 32, Wo: 32, Co: 16})
	prev := in
	const L = 6
	for i := 0; i < L; i++ {
		prev = g.AddLayer(
			"c"+string(rune('a'+i)), graph.OpConv,
			graph.ConvShape(32, 32, 16, 16, 3, 1, 1), prev)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := make(atom.Spec)
	for id := 1; id <= L; id++ {
		spec[id] = atom.Partition{Hp: 8, Wp: 32, Cop: 16} // 4 atoms per layer
	}
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(d, opts(4, Greedy))
	if err != nil {
		t.Fatal(err)
	}
	checkRounds(t, d, s, 4)
	// Strict layer-sequential would need exactly L rounds of 4; the
	// halo dependencies force more rounds, but fused execution must not
	// serialize fully (2 rounds per layer = 12).
	if got := s.NumRounds(); got >= 2*L {
		t.Errorf("cascade rounds = %d, want < %d (fusion must overlap layers)", got, 2*L)
	}
}

func TestBatchRule4(t *testing.T) {
	// tinyconv atoms per sample are few; with 8 engines, the scheduler
	// must co-schedule atoms from multiple samples in one round.
	d := dagFor(t, "tinyconv", 4)
	s, err := Build(d, opts(8, Greedy))
	if err != nil {
		t.Fatal(err)
	}
	checkRounds(t, d, s, 8)
	crossSample := false
	for _, r := range s.Rounds {
		samples := make(map[int]bool)
		for _, id := range r.Atoms {
			samples[d.Atoms[id].Sample] = true
		}
		if len(samples) > 1 {
			crossSample = true
		}
	}
	if !crossSample {
		t.Error("no round mixed samples; batch parallelism unexploited")
	}
}

func TestSampleOrderLatency(t *testing.T) {
	// Rule 4 is latency-aware: sample 0's last atom must complete no
	// later than sample 1's (inference order preserved).
	d := dagFor(t, "tinyresnet", 3)
	s, err := Build(d, opts(4, Greedy))
	if err != nil {
		t.Fatal(err)
	}
	last := make([]int, d.Batch)
	for id, a := range d.Atoms {
		if a.Task.Kind == graph.OpInput {
			continue
		}
		if r := s.AtomRound[id]; r > last[a.Sample] {
			last[a.Sample] = r
		}
	}
	for i := 1; i < d.Batch; i++ {
		if last[i] < last[i-1] {
			t.Errorf("sample %d finished round %d before sample %d (round %d)",
				i, last[i], i-1, last[i-1])
		}
	}
}

func TestPriorityRule1Reuse(t *testing.T) {
	// With 2 engines and a layer of 6 atoms followed by a sibling layer,
	// rule 1 must keep draining the traversed layer before starting
	// siblings.
	g := graph.New("reuse")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 24, Wo: 8, Co: 8})
	a := g.AddLayer("a", graph.OpConv, graph.ConvShape(24, 8, 8, 8, 1, 1, 0), in)
	b := g.AddLayer("b", graph.OpConv, graph.ConvShape(24, 8, 8, 8, 1, 1, 0), in)
	g.AddLayer("add", graph.OpEltwise, graph.EltwiseShape(24, 8, 8), a, b)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := atom.Spec{
		a: {Hp: 4, Wp: 8, Cop: 8}, // 6 atoms
		b: {Hp: 4, Wp: 8, Cop: 8}, // 6 atoms
	}
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(d, opts(2, Greedy))
	if err != nil {
		t.Fatal(err)
	}
	checkRounds(t, d, s, 2)
	// Round 0 starts layer a (topo-first); rounds 1 and 2 must stay on a
	// (rule 1) rather than interleaving b.
	for tIdx := 0; tIdx < 3; tIdx++ {
		for _, id := range s.Rounds[tIdx].Atoms {
			if d.Atoms[id].Layer != a {
				t.Fatalf("round %d contains layer %d, want only layer a=%d (rule 1)",
					tIdx, d.Atoms[id].Layer, a)
			}
		}
	}
}

func TestMakespanLB(t *testing.T) {
	d := dagFor(t, "tinyconv", 1)
	s, err := Build(d, opts(2, Greedy))
	if err != nil {
		t.Fatal(err)
	}
	var manual int64
	for _, r := range s.Rounds {
		var worst int64
		for _, id := range r.Atoms {
			if c := s.ComputeCycles[id]; c > worst {
				worst = c
			}
		}
		manual += worst
	}
	if s.MakespanLB() != manual {
		t.Errorf("MakespanLB = %d, want %d", s.MakespanLB(), manual)
	}
}

func TestBuildErrors(t *testing.T) {
	d := dagFor(t, "tinyconv", 1)
	if _, err := Build(d, Options{Engines: 0, EngineCfg: engine.Default()}); err == nil {
		t.Error("Engines=0 accepted")
	}
	bad := opts(4, Greedy)
	bad.EngineCfg.PEx = 0
	if _, err := Build(d, bad); err == nil {
		t.Error("invalid engine config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	d := dagFor(t, "pnascell", 2)
	a, err := Build(d, opts(4, DP))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(d, opts(4, DP))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRounds() != b.NumRounds() {
		t.Fatalf("round counts differ: %d vs %d", a.NumRounds(), b.NumRounds())
	}
	for i := range a.Rounds {
		if len(a.Rounds[i].Atoms) != len(b.Rounds[i].Atoms) {
			t.Fatalf("round %d sizes differ", i)
		}
		for j := range a.Rounds[i].Atoms {
			if a.Rounds[i].Atoms[j] != b.Rounds[i].Atoms[j] {
				t.Fatalf("round %d atom %d differs", i, j)
			}
		}
	}
}

// Property: for random engine counts, greedy schedules are always valid
// and use at least ceil(atoms/N) rounds.
func TestGreedyProperty(t *testing.T) {
	d := dagFor(t, "tinybranch", 2)
	nonVirtual := 0
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			nonVirtual++
		}
	}
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 1
		s, err := Build(d, opts(n, Greedy))
		if err != nil {
			return false
		}
		minRounds := (nonVirtual + n - 1) / n
		return s.NumRounds() >= minRounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPriceAtomsMatchesDirect checks priceAtoms, which prices one
// replicated block and copies its prices to the other samples, against
// pricing every atom on its own: each replica must carry its block
// atom's layer and Task and so the same cycles and MACs.
func TestPriceAtomsMatchesDirect(t *testing.T) {
	for _, batch := range []int{1, 3} {
		d := dagFor(t, "tinyresnet", batch)
		if b := d.BlockAtoms(); b <= 0 || d.NumAtoms() != b*batch {
			t.Fatalf("batch %d: %d atoms is not %d blocks of %d", batch, d.NumAtoms(), batch, b)
		}
		opt := opts(4, DP)
		cycles, macs := priceAtoms(d, opt)
		for id, a := range d.Atoms {
			if blk := d.Atoms[id%d.BlockAtoms()]; a.Layer != blk.Layer || a.Task != blk.Task {
				t.Fatalf("batch %d: atom %d is not a replica of block atom %d", batch, id, id%d.BlockAtoms())
			}
			c := engine.Evaluate(opt.EngineCfg, opt.Dataflow, a.Task)
			if cycles[id] != c.Cycles || macs[id] != c.MACs {
				t.Fatalf("batch %d: atom %d priced (%d, %d), direct (%d, %d)",
					batch, id, cycles[id], macs[id], c.Cycles, c.MACs)
			}
		}
	}
}
