package anneal

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

// TestProgressHookIsObservationOnly is the determinism contract behind
// the fleet dashboard: attaching a Progress hook — which piggybacks on
// the portfolio barriers — must leave the Result byte-identical to a
// hookless run, at every width.
func TestProgressHookIsObservationOnly(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	cfg := engine.Default()
	for _, chains := range []int{1, 2, 4} {
		base := Options{MaxIters: 320, Seed: 9, Chains: chains}
		plain := SA(g, cfg, engine.KCPartition, base)

		hooked := base
		var batches [][]Sample
		hooked.Progress = func(s []Sample) {
			cp := make([]Sample, len(s))
			copy(cp, s)
			batches = append(batches, cp)
		}
		observed := SA(g, cfg, engine.KCPartition, hooked)

		sameResult(t, "progress hook, chains="+string(rune('0'+chains)), plain, observed)
		if len(batches) == 0 {
			t.Fatalf("chains=%d: hook never fired", chains)
		}
		checkBatches(t, batches, chains)
	}
}

func checkBatches(t *testing.T, batches [][]Sample, chains int) {
	t.Helper()
	final := batches[len(batches)-1]
	for _, s := range final {
		if !s.Final {
			t.Fatalf("chains=%d: last batch has non-final sample %+v", chains, s)
		}
	}
	for bi, batch := range batches[:len(batches)-1] {
		for _, s := range batch {
			if s.Final {
				t.Fatalf("chains=%d: batch %d marked final early", chains, bi)
			}
		}
	}
	// Per-chain iteration counts never move backwards, best energy never
	// rises, and the CV derives from BestE/BestS.
	lastIter := map[int]int{}
	lastBest := map[int]float64{}
	for bi, batch := range batches {
		if chains > 1 && bi < len(batches)-1 && len(batch) != chains {
			t.Fatalf("barrier batch %d has %d samples, want %d", bi, len(batch), chains)
		}
		for _, s := range batch {
			if prev, ok := lastIter[s.Chain]; ok && s.Iters < prev {
				t.Fatalf("chain %d iterations went backwards: %d after %d", s.Chain, s.Iters, prev)
			}
			lastIter[s.Chain] = s.Iters
			if prev, ok := lastBest[s.Chain]; ok && s.BestE > prev+1e-9 && !s.Adopted {
				t.Fatalf("chain %d best energy rose without adoption: %v after %v", s.Chain, s.BestE, prev)
			}
			lastBest[s.Chain] = s.BestE
			if s.BestS > 0 && s.CV() <= 0 && s.BestE > 0 {
				t.Fatalf("chain %d: CV() = %v with BestE %v BestS %v", s.Chain, s.CV(), s.BestE, s.BestS)
			}
		}
	}
}

// TestProgressSingleChainCadence pins the emission schedule of a
// one-chain search: one batch per exchangeEvery barrier plus the final
// batch, each of exactly one sample.
func TestProgressSingleChainCadence(t *testing.T) {
	g := models.MustBuild("tinyconv")
	cfg := engine.Default()
	var batches int
	opt := Options{MaxIters: 200, Seed: 3}
	opt.Progress = func(s []Sample) {
		if len(s) != 1 {
			t.Fatalf("single-chain batch has %d samples", len(s))
		}
		batches++
	}
	res := SA(g, cfg, engine.KCPartition, opt)
	// 200 iters / 50 per segment = 3 barriers (the budget's end is not
	// one) + 1 final batch — unless the chain converged early, which only
	// shortens the schedule.
	if batches < 2 || batches > 4 {
		t.Fatalf("saw %d batches for 200 iters @ %d (want 2..4, iters ran %d)", batches, exchangeEvery, res.Iters)
	}
}
