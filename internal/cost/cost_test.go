package cost

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// randTask draws a random but well-formed engine task.
func randTask(rng *rand.Rand) engine.Task {
	kinds := []graph.OpKind{
		graph.OpConv, graph.OpDepthwiseConv, graph.OpFC,
		graph.OpPool, graph.OpEltwise, graph.OpActivation, graph.OpGlobalPool,
	}
	t := engine.Task{
		Kind:   kinds[rng.Intn(len(kinds))],
		Hp:     1 + rng.Intn(64),
		Wp:     1 + rng.Intn(64),
		Ci:     1 + rng.Intn(256),
		Cop:    1 + rng.Intn(256),
		Kh:     1 + rng.Intn(3),
		Kw:     1 + rng.Intn(3),
		Stride: 1 + rng.Intn(2),
	}
	if t.Kind == graph.OpFC {
		t.Hp, t.Wp, t.Kh, t.Kw, t.Stride = 1, 1, 1, 1, 1
	}
	return t
}

// TestMemoMatchesDirect is the cache-correctness property: for randomized
// tasks across every dataflow, the memoized oracle returns a Cost
// byte-identical to direct engine.Evaluate — both on the miss that fills
// the cache and on the hit that reads it back.
func TestMemoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	memo := NewMemo(Direct{})
	variants := []struct {
		cfg engine.Config
		df  engine.Dataflow
	}{
		{engine.Default(), engine.KCPartition},
		{engine.Default(), engine.YXPartition},
		{engine.FlexDefault(), engine.FlexPartition},
	}
	for i := 0; i < 3000; i++ {
		v := variants[rng.Intn(len(variants))]
		task := randTask(rng)
		want := engine.Evaluate(v.cfg, v.df, task)
		if got := memo.Evaluate(v.cfg, v.df, task); got != want {
			t.Fatalf("miss path: memo = %+v, direct = %+v (task %+v, df %v)",
				got, want, task, v.df)
		}
		if got := memo.Evaluate(v.cfg, v.df, task); got != want {
			t.Fatalf("hit path: memo = %+v, direct = %+v (task %+v, df %v)",
				got, want, task, v.df)
		}
	}
	st := memo.Stats()
	if st.Hits < 3000 {
		t.Errorf("hits = %d, want >= 3000 (every task re-evaluated once)", st.Hits)
	}
	if st.Evaluations != st.Hits+st.Misses {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

// TestMemoConcurrent hammers one memo from many goroutines over an
// overlapping task set; run under -race this checks the locking, and
// every result must still equal the direct evaluation.
func TestMemoConcurrent(t *testing.T) {
	cfg := engine.Default()
	tasks := make([]engine.Task, 200)
	rng := rand.New(rand.NewSource(11))
	for i := range tasks {
		tasks[i] = randTask(rng)
	}
	memo := NewMemo(Direct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				task := tasks[r.Intn(len(tasks))]
				df := engine.Dataflow(r.Intn(2)) // KC-P or YX-P
				got := memo.Evaluate(cfg, df, task)
				if want := engine.Evaluate(cfg, df, task); got != want {
					select {
					case errs <- "memo diverged from direct under concurrency":
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := memo.Stats()
	if st.Evaluations != 8*2000 {
		t.Errorf("evaluations = %d, want %d", st.Evaluations, 8*2000)
	}
	if st.Hits+st.Misses != st.Evaluations {
		t.Errorf("hits %d + misses %d != evaluations %d", st.Hits, st.Misses, st.Evaluations)
	}
}

// TestInstrumentedStats checks the Default() stack counts every
// evaluation, an Instrumented Memo adds the hit/miss pair, and the Sub
// helper.
func TestInstrumentedStats(t *testing.T) {
	cfg := engine.Default()
	task := engine.Task{Kind: graph.OpConv, Hp: 8, Wp: 8, Ci: 16, Cop: 16, Kh: 3, Kw: 3, Stride: 1}
	def := Default()
	for i := 0; i < 10; i++ {
		def.Evaluate(cfg, engine.KCPartition, task)
	}
	if st := def.Stats(); st != (Stats{Evaluations: 10}) {
		t.Fatalf("Default() stats = %+v, want 10 evaluations and no cache counters", st)
	}

	orc := NewInstrumented(NewMemo(Direct{}))
	for i := 0; i < 10; i++ {
		orc.Evaluate(cfg, engine.KCPartition, task)
	}
	st := orc.Stats()
	if st.Evaluations != 10 || st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("stats = %+v, want 10 evaluations, 9 hits, 1 miss", st)
	}
	prev := st
	orc.Evaluate(cfg, engine.YXPartition, task)
	d := orc.Stats().Sub(prev)
	if d.Evaluations != 1 || d.Misses != 1 || d.Hits != 0 {
		t.Errorf("delta = %+v, want 1 evaluation / 1 miss", d)
	}
}

// TestOrResolution pins the nil-oracle default: consumers get the engine
// model directly, and a provided oracle passes through unchanged.
func TestOrResolution(t *testing.T) {
	if got := Or(nil); got != Oracle(Direct{}) {
		t.Errorf("Or(nil) = %T, want Direct", got)
	}
	m := NewMemo(nil)
	if got := Or(m); got != Oracle(m) {
		t.Errorf("Or(memo) did not pass through")
	}
}

// TestStatsEdgeCases pins the delta behaviour of Stats.Sub that
// per-experiment accounting leans on.
func TestStatsEdgeCases(t *testing.T) {
	// Sub covers every field, and X.Sub(X) is zero.
	a := Stats{Evaluations: 10, Hits: 4, Misses: 6}
	b := Stats{Evaluations: 25, Hits: 12, Misses: 13}
	if d := b.Sub(a); d != (Stats{Evaluations: 15, Hits: 8, Misses: 7}) {
		t.Errorf("Sub = %+v", d)
	}
	if d := a.Sub(a); d != (Stats{}) {
		t.Errorf("self-delta = %+v, want zero", d)
	}
}

// TestStatsOf pins the uniform accounting contract over the oracle
// stacks consumers build: Default(), a bare Memo, and Direct (which is
// also what Or(nil) returns).
func TestStatsOf(t *testing.T) {
	cfg := engine.Default()
	task := engine.Task{Kind: graph.OpConv, Hp: 8, Wp: 8, Ci: 16, Cop: 16, Kh: 3, Kw: 3, Stride: 1}

	orc := Default()
	orc.Evaluate(cfg, engine.KCPartition, task)
	if st, ok := StatsOf(orc); !ok || st.Evaluations != 1 {
		t.Errorf("StatsOf(Default()) = %+v, %v", st, ok)
	}

	memo := NewMemo(Direct{})
	memo.Evaluate(cfg, engine.KCPartition, task)
	memo.Evaluate(cfg, engine.KCPartition, task)
	if st, ok := StatsOf(memo); !ok || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("StatsOf(memo) = %+v, %v", st, ok)
	}

	if _, ok := StatsOf(Or(nil)); ok {
		t.Error("StatsOf(Or(nil)) reported ok for a stat-less oracle")
	}
}
