package cost

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		Kind:     kinds[rng.Intn(len(kinds))],
		Hp:       1 + rng.Intn(64),
		Wp:       1 + rng.Intn(64),
		Ci:       1 + rng.Intn(256),
		Cop:      1 + rng.Intn(256),
		Kh:       1 + rng.Intn(3),
		Kw:       1 + rng.Intn(3),
		Stride:   1 + rng.Intn(2),
		Replicas: rng.Intn(4),
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
// overlapping task set; run under -race this checks the striped locking,
// and every result must still equal the direct evaluation.
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
	if st.Misses > int64(len(tasks)*2) {
		t.Errorf("misses = %d, want <= %d (one per unique key, modulo benign races)",
			st.Misses, len(tasks)*2)
	}
	if memo.Len() > len(tasks)*2 {
		t.Errorf("cache holds %d entries for %d unique keys", memo.Len(), len(tasks)*2)
	}
}

// blockingOracle parks every evaluation until release is closed, so a
// test can pile concurrent misses of one key onto a single in-flight
// leader. calls counts how often the engine model actually ran.
type blockingOracle struct {
	entered chan struct{}
	release chan struct{}
	calls   int32
	panics  bool
}

func (b *blockingOracle) Evaluate(cfg engine.Config, df engine.Dataflow, t engine.Task) engine.Cost {
	atomic.AddInt32(&b.calls, 1)
	b.entered <- struct{}{}
	<-b.release
	if b.panics {
		panic("engine model failure")
	}
	return engine.Evaluate(cfg, df, t)
}

// TestMemoDedup pins the singleflight contract: N goroutines missing the
// same key concurrently run the engine model exactly once — one miss, and
// N-1 dedup joins that all observe the leader's result.
func TestMemoDedup(t *testing.T) {
	const joiners = 7
	b := &blockingOracle{entered: make(chan struct{}, 1), release: make(chan struct{})}
	memo := NewMemo(b)
	cfg := engine.Default()
	task := engine.Task{Kind: graph.OpConv, Hp: 8, Wp: 8, Ci: 16, Cop: 16, Kh: 3, Kw: 3, Stride: 1}
	want := engine.Evaluate(cfg, engine.KCPartition, task)

	results := make(chan engine.Cost, joiners+1)
	for i := 0; i < joiners+1; i++ {
		go func() { results <- memo.Evaluate(cfg, engine.KCPartition, task) }()
	}
	<-b.entered // the leader is inside the engine model
	// Wait until every other goroutine has parked on the in-flight call;
	// Dedups is incremented before blocking, so it is the join count.
	for memo.Stats().Dedups < joiners {
		time.Sleep(time.Millisecond)
	}
	close(b.release)
	for i := 0; i < joiners+1; i++ {
		if got := <-results; got != want {
			t.Fatalf("result %d = %+v, want %+v", i, got, want)
		}
	}
	st := memo.Stats()
	if st.Misses != 1 || st.Dedups != joiners || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d dedup joins, 0 hits", st, joiners)
	}
	if st.Evaluations != joiners+1 {
		t.Errorf("evaluations = %d, want %d (every caller counted once)", st.Evaluations, joiners+1)
	}
	if b.calls != 1 {
		t.Errorf("engine model ran %d times, want 1", b.calls)
	}
	// Post-dedup reads are plain cache hits.
	if got := memo.Evaluate(cfg, engine.KCPartition, task); got != want {
		t.Fatalf("post-dedup hit = %+v, want %+v", got, want)
	}
	if st := memo.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d, want 1 after the dedup settled", st.Hits)
	}
}

// TestMemoDedupPanic checks a panicking leader wakes its joiners with the
// same panic value and unregisters the in-flight entry, so a later retry
// re-runs the engine model instead of deadlocking or caching garbage.
func TestMemoDedupPanic(t *testing.T) {
	b := &blockingOracle{entered: make(chan struct{}, 1), release: make(chan struct{}), panics: true}
	memo := NewMemo(b)
	cfg := engine.Default()
	task := engine.Task{Kind: graph.OpConv, Hp: 8, Wp: 8, Ci: 16, Cop: 16, Kh: 3, Kw: 3, Stride: 1}

	recovered := make(chan any, 2)
	eval := func() {
		defer func() { recovered <- recover() }()
		memo.Evaluate(cfg, engine.KCPartition, task)
	}
	go eval()
	<-b.entered
	go eval()
	for memo.Stats().Dedups < 1 {
		time.Sleep(time.Millisecond)
	}
	close(b.release)
	for i := 0; i < 2; i++ {
		if r := <-recovered; r != "engine model failure" {
			t.Fatalf("caller %d recovered %v, want the oracle's panic value", i, r)
		}
	}
	// The failed flight must not be cached: a retry evaluates again.
	b.panics = false
	b.release = make(chan struct{})
	close(b.release)
	done := make(chan engine.Cost, 1)
	go func() { done <- memo.Evaluate(cfg, engine.KCPartition, task) }()
	<-b.entered
	if got, want := <-done, engine.Evaluate(cfg, engine.KCPartition, task); got != want {
		t.Fatalf("retry = %+v, want %+v", got, want)
	}
	if b.calls != 2 {
		t.Errorf("engine model ran %d times, want 2 (failed flight + retry)", b.calls)
	}
}

// TestInstrumentedStats checks the full Default() stack reports the
// evaluations/hits/misses triple and the Sub/HitRate helpers.
func TestInstrumentedStats(t *testing.T) {
	orc := Default()
	cfg := engine.Default()
	task := engine.Task{Kind: graph.OpConv, Hp: 8, Wp: 8, Ci: 16, Cop: 16, Kh: 3, Kw: 3, Stride: 1}
	for i := 0; i < 10; i++ {
		orc.Evaluate(cfg, engine.KCPartition, task)
	}
	st := orc.Stats()
	if st.Evaluations != 10 || st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("stats = %+v, want 10 evaluations, 9 hits, 1 miss", st)
	}
	if got := st.HitRate(); got != 0.9 {
		t.Errorf("hit rate = %v, want 0.9", got)
	}
	prev := st
	orc.Evaluate(cfg, engine.YXPartition, task)
	d := orc.Stats().Sub(prev)
	if d.Evaluations != 1 || d.Misses != 1 || d.Hits != 0 {
		t.Errorf("delta = %+v, want 1 evaluation / 1 miss", d)
	}
}

// TestOrResolution pins the nil-oracle default: consumers get a fresh
// memoized oracle, and a provided oracle passes through unchanged.
func TestOrResolution(t *testing.T) {
	if _, ok := Or(nil).(*Memo); !ok {
		t.Errorf("Or(nil) = %T, want *Memo", Or(nil))
	}
	d := Direct{}
	if got := Or(d); got != Oracle(d) {
		t.Errorf("Or(Direct{}) did not pass through")
	}
}

// TestStatsEdgeCases pins the zero-value and delta behaviour of the
// Stats helpers that accounting code leans on.
func TestStatsEdgeCases(t *testing.T) {
	var zero Stats
	if got := zero.HitRate(); got != 0 {
		t.Errorf("zero HitRate = %v, want 0 (not NaN)", got)
	}
	if got := zero.String(); got != "0 evaluations (0 hits, 0 misses, 0.0% hit-rate)" {
		t.Errorf("zero String = %q", got)
	}
	// Dedup joins only surface in String once one happened.
	withDedup := Stats{Evaluations: 4, Hits: 1, Misses: 1, Dedups: 2}
	if got := withDedup.String(); got != "4 evaluations (1 hits, 1 misses, 2 dedup joins, 50.0% hit-rate)" {
		t.Errorf("dedup String = %q", got)
	}
	// Miss-only streams have a 0 hit-rate, hit-only streams 1.
	if got := (Stats{Evaluations: 3, Misses: 3}).HitRate(); got != 0 {
		t.Errorf("miss-only HitRate = %v, want 0", got)
	}
	if got := (Stats{Evaluations: 3, Hits: 3}).HitRate(); got != 1 {
		t.Errorf("hit-only HitRate = %v, want 1", got)
	}
	// Sub covers every field, and X.Sub(X) is zero.
	a := Stats{Evaluations: 10, Hits: 4, Misses: 5, Dedups: 1}
	b := Stats{Evaluations: 25, Hits: 12, Misses: 10, Dedups: 3}
	if d := b.Sub(a); d != (Stats{Evaluations: 15, Hits: 8, Misses: 5, Dedups: 2}) {
		t.Errorf("Sub = %+v", d)
	}
	if d := a.Sub(a); d != (Stats{}) {
		t.Errorf("self-delta = %+v, want zero", d)
	}
}

// TestStatsOf pins the uniform accounting contract over the three oracle
// stacks consumers actually build: Default(), Or(nil), and bare Direct.
func TestStatsOf(t *testing.T) {
	cfg := engine.Default()
	task := engine.Task{Kind: graph.OpConv, Hp: 8, Wp: 8, Ci: 16, Cop: 16, Kh: 3, Kw: 3, Stride: 1}

	orc := Default()
	orc.Evaluate(cfg, engine.KCPartition, task)
	if st, ok := StatsOf(orc); !ok || st.Evaluations != 1 || st.Misses != 1 {
		t.Errorf("StatsOf(Default()) = %+v, %v", st, ok)
	}

	// The Or(nil) fallback is a bare *Memo, but still accountable — the
	// deliberate asymmetry documented on Or.
	fallback := Or(nil)
	fallback.Evaluate(cfg, engine.KCPartition, task)
	fallback.Evaluate(cfg, engine.KCPartition, task)
	if st, ok := StatsOf(fallback); !ok || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("StatsOf(Or(nil)) = %+v, %v", st, ok)
	}

	if _, ok := StatsOf(Direct{}); ok {
		t.Error("StatsOf(Direct{}) reported ok for a stat-less oracle")
	}

	// Len forwards through the Instrumented wrapper too.
	if got := orc.Len(); got != 1 {
		t.Errorf("Instrumented.Len = %d, want 1", got)
	}
	if got := NewInstrumented(Direct{}).Len(); got != 0 {
		t.Errorf("Len over non-Memo inner = %d, want 0", got)
	}
}
