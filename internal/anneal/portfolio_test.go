package anneal

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
)

func TestChainSeed(t *testing.T) {
	// Chain 0 keeps the run seed: a one-chain search must be the
	// classic Algorithm 1 trajectory.
	if got := chainSeed(42, 0); got != 42 {
		t.Errorf("chainSeed(42, 0) = %d, want 42", got)
	}
	// Derived seeds are deterministic, pairwise distinct and never zero
	// (zero would silently mean "default" elsewhere).
	seen := map[int64]int{}
	for _, runSeed := range []int64{1, 2, 42, -7} {
		for i := 0; i < 16; i++ {
			s := chainSeed(runSeed, i)
			if s == 0 {
				t.Errorf("chainSeed(%d, %d) = 0", runSeed, i)
			}
			if s != chainSeed(runSeed, i) {
				t.Errorf("chainSeed(%d, %d) not deterministic", runSeed, i)
			}
			seen[s]++
		}
	}
	// splitmix64's finalizer should spread (seed, index) pairs without
	// collisions at this tiny scale.
	for s, n := range seen {
		if n > 1 {
			t.Errorf("seed %d produced by %d distinct (run, chain) pairs", s, n)
		}
	}
}

// sameResult compares every externally-visible field of two Results.
func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.FinalVar != b.FinalVar || a.FinalCV != b.FinalCV ||
		a.MeanCycle != b.MeanCycle || a.Iters != b.Iters {
		t.Errorf("%s: scalars diverged: Var %v/%v CV %v/%v Mean %v/%v Iters %d/%d",
			label, a.FinalVar, b.FinalVar, a.FinalCV, b.FinalCV,
			a.MeanCycle, b.MeanCycle, a.Iters, b.Iters)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s: trace[%d] = %v vs %v", label, i, a.Trace[i], b.Trace[i])
		}
	}
	if len(a.Spec) != len(b.Spec) {
		t.Fatalf("%s: spec sizes %d vs %d", label, len(a.Spec), len(b.Spec))
	}
	for lid, p := range a.Spec {
		if b.Spec[lid] != p {
			t.Errorf("%s: layer %d spec %+v vs %+v", label, lid, p, b.Spec[lid])
		}
	}
}

// TestPortfolioDeterministicAcrossGOMAXPROCS is the tentpole property:
// a fixed (graph, seed, chains) tuple yields a bit-identical Result
// whether the chains run on one OS thread or genuinely interleave.
func TestPortfolioDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	cfg := engine.Default()
	opt := Options{MaxIters: 160, Seed: 1, Chains: 4}

	prev := runtime.GOMAXPROCS(1)
	serial := SA(g, cfg, engine.KCPartition, opt)
	runtime.GOMAXPROCS(4)
	parallel := SA(g, cfg, engine.KCPartition, opt)
	parallel2 := SA(g, cfg, engine.KCPartition, opt)
	runtime.GOMAXPROCS(prev)

	sameResult(t, "GOMAXPROCS 1 vs 4", serial, parallel)
	sameResult(t, "repeat at GOMAXPROCS 4", parallel, parallel2)
	if _, err := atom.Build(g, 1, parallel.Spec); err != nil {
		t.Errorf("portfolio spec unusable: %v", err)
	}
}

// TestPortfolioSeedAndWidthMatter pins that the knobs do something: a
// different seed or a different width must be allowed to change the
// outcome (they explore different trajectories), while Chains: 1 must be
// byte-for-byte the default (unset) search.
func TestPortfolioSeedAndWidthMatter(t *testing.T) {
	g := models.MustBuild("tinyconv")
	cfg := engine.Default()

	classic := SA(g, cfg, engine.KCPartition, Options{MaxIters: 100, Seed: 42})
	viaKnob := SA(g, cfg, engine.KCPartition, Options{MaxIters: 100, Seed: 42, Chains: 1})
	sameResult(t, "Chains:1 vs unset", classic, viaKnob)
}

// TestPortfolioConvergesLikeSA: the portfolio keeps the SA contract —
// non-increasing best-energy trace, usable spec, sane mean cycle — at
// several widths, including widths that don't divide MaxIters evenly.
func TestPortfolioConvergesLikeSA(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	cfg := engine.Default()
	for _, k := range []int{2, 3, 4} {
		res := SA(g, cfg, engine.KCPartition, Options{MaxIters: 100, Seed: 7, Chains: k})
		if len(res.Trace) == 0 {
			t.Fatalf("chains=%d: empty trace", k)
		}
		for i := 1; i < len(res.Trace); i++ {
			if res.Trace[i] > res.Trace[i-1]+1e-9 {
				t.Fatalf("chains=%d: best-energy trace not monotone at %d", k, i)
			}
		}
		if res.MeanCycle <= 0 {
			t.Errorf("chains=%d: MeanCycle = %v", k, res.MeanCycle)
		}
		if _, err := atom.Build(g, 1, res.Spec); err != nil {
			t.Errorf("chains=%d: Build: %v", k, err)
		}
	}
}

// TestPortfolioCancellation: a cancelled context truncates the portfolio
// — every chain stops at its next iteration check, and the reduction
// still returns a usable
// best-so-far spec instead of hanging or panicking.
func TestPortfolioCancellation(t *testing.T) {
	g := models.MustBuild("tinyconv")
	cfg := engine.Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: chains must do no Metropolis work
	done := make(chan Result, 1)
	go func() {
		done <- SA(g, cfg, engine.KCPartition,
			Options{MaxIters: 5000, Seed: 3, Chains: 4, Ctx: ctx})
	}()
	select {
	case res := <-done:
		if res.Iters != 0 {
			t.Errorf("cancelled portfolio ran %d iterations, want 0", res.Iters)
		}
		if _, err := atom.Build(g, 1, res.Spec); err != nil {
			t.Errorf("best-so-far spec unusable: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled portfolio did not return")
	}
}

// TestPortfolioMetrics checks the per-chain observability: the width
// gauge, the exchange counter, the per-chain accept/reject split summing
// to the aggregate iteration counter, and a wall-time gauge per member.
// A one-chain search is the one-chain portfolio, so it exports the same
// series.
func TestPortfolioMetrics(t *testing.T) {
	g := models.MustBuild("tinyconv")
	for _, k := range []int{1, 4} {
		reg := obs.New()
		SA(g, engine.Default(), engine.KCPartition,
			Options{MaxIters: 120, Seed: 42, Chains: k, Metrics: reg})
		snap := reg.Snapshot()
		if got := snap.Gauge("anneal_chains"); got != float64(k) {
			t.Errorf("k=%d: anneal_chains = %v, want %d", k, got, k)
		}
		if _, ok := snap.Counters["anneal_exchanges_total"]; !ok {
			t.Errorf("k=%d: anneal_exchanges_total not exported", k)
		}
		var perChain int64
		for i := 0; i < k; i++ {
			acc := snap.Counter(obs.Name("anneal_chain_accepts_total", "chain", i))
			rej := snap.Counter(obs.Name("anneal_chain_rejects_total", "chain", i))
			if acc+rej == 0 {
				t.Errorf("k=%d: chain %d recorded no Metropolis decisions", k, i)
			}
			perChain += acc + rej
			if _, ok := snap.Gauges[obs.Name("anneal_chain_seconds", "chain", i)]; !ok {
				t.Errorf("k=%d: chain %d has no wall-time gauge", k, i)
			}
		}
		if iters := snap.Counter("anneal_iterations_total"); perChain != iters {
			t.Errorf("k=%d: per-chain accepts+rejects = %d, want %d (the aggregate)", k, perChain, iters)
		}
		if agg := snap.Counter("anneal_accepts_total") + snap.Counter("anneal_rejects_total"); agg != snap.Counter("anneal_iterations_total") {
			t.Errorf("k=%d: aggregate accepts+rejects = %d, want %d", k, agg, snap.Counter("anneal_iterations_total"))
		}
	}
}
