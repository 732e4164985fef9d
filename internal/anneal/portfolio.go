package anneal

import (
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/par"
)

// This file is the search loop: Options.Chains independently-seeded SA
// chains run concurrently over one shared candidate space, exchange best
// states at deterministic iteration barriers, and reduce to a single
// winner. One chain is the paper's Algorithm 1: chain 0 keeps the run
// seed and a lone chain never exchanges, so the barriers only create
// points to observe progress from.
//
// Determinism argument, in three parts:
//
//  1. Chain trajectories. Each chain owns a private RNG seeded by a pure
//     function of (Options.Seed, chain index), so between barriers its
//     path depends only on its seed and on the state it held when the
//     segment started — never on scheduling. par.ForEach only changes
//     which OS thread executes a chain, not what the chain computes.
//  2. Barriers. Exchanges happen when every chain has finished the same
//     chain-local iteration count (a par.ForEach join), and the exchange
//     itself runs sequentially on the caller: global best = lowest bestE
//     with ties broken by lowest chain index (float comparison, no map
//     iteration). What a chain resumes with is therefore a deterministic
//     function of all chains' deterministic segment results.
//  3. Reduction. The winner is again (lowest bestE, lowest index), and
//     the final polish sweep reduces its grid in index order.
//
// Together: a fixed (graph, hardware, Options.Seed, Options.Chains)
// tuple yields a bit-identical Result for any GOMAXPROCS or goroutine
// interleaving. Cancellation is the one sanctioned exception — it
// truncates chains mid-segment wherever they happen to be and returns
// the best state found so far.

// chainSeed derives chain i's RNG seed from the run seed. Chain 0 keeps
// the run seed itself so a one-chain search is Algorithm 1's trajectory;
// the rest take a splitmix64 stream (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"), whose finalizer decorrelates even
// consecutive run seeds into well-spread chain seeds.
func chainSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	x := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15 // golden-ratio gamma
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x)
	if s == 0 {
		s = 1 // keep the "0 means default" seed convention out of chains
	}
	return s
}

// SA runs the simulated-annealing search of Algorithm 1 as a portfolio
// of Options.Chains chains (one by default) and returns the per-layer
// atom sizes plus the winning chain's convergence trace.
func SA(g *graph.Graph, cfg engine.Config, df engine.Dataflow, opt Options) Result {
	sctx := newSearch(g, cfg, df, opt)
	m := newSAMetrics(opt)
	K := opt.chains()

	// The iteration budget is the portfolio total: K chains of
	// ceil(MaxIters/K) iterations do ~MaxIters Metropolis steps combined,
	// so Chains trades nothing away on total work — it spreads the same
	// budget over several trajectories, with exchanges re-focusing
	// strayed chains.
	perChain := (opt.maxIters() + K - 1) / K

	chains := make([]*saChain, K)
	for i := range chains {
		chains[i] = newChain(i, chainSeed(opt.seed(), i), sctx)
	}

	exchanges := int64(0)
	for done := 0; done < perChain; {
		n := exchangeEvery
		if done+n > perChain {
			n = perChain - done
		}
		par.ForEach(len(chains), func(i int) {
			if !chains[i].converged {
				chains[i].run(sctx, opt, n, m)
			}
		})
		done += n
		if opt.cancelled() || done >= perChain {
			break
		}
		anyConverged := false
		for _, c := range chains {
			if c.converged {
				anyConverged = true
			}
		}
		if anyConverged {
			// One chain hit the epsilon target: the portfolio is done
			// (deterministic — convergence is a property of the segment
			// results, inspected only at the barrier).
			break
		}
		// Exchange barrier: chains whose current energy trails the global
		// best adopt it (parallel-tempering style greedy restart). Their
		// RNGs are untouched, so the next segment stays seeded.
		gb := 0
		for i := 1; i < len(chains); i++ {
			if chains[i].bestE < chains[gb].bestE {
				gb = i
			}
		}
		adopted := make([]bool, len(chains))
		for i, c := range chains {
			if c.idx == chains[gb].idx || chains[gb].bestE >= c.E {
				continue
			}
			// Adoption only moves the scalars and the pinned best: the
			// chain's next proposal is the argmin image of a target drawn
			// around the adopted S.
			c.E, c.S = chains[gb].bestE, chains[gb].bestS
			c.lenAbs = c.S * lenFrac
			if c.E < c.bestE {
				c.best, c.bestE, c.bestS = chains[gb].best, c.E, c.S
			}
			c.adoptions++
			adopted[i] = true
			exchanges++
		}
		if opt.Progress != nil {
			// The barrier runs sequentially on this goroutine, so sampling
			// here reads settled chain state; the hook only observes.
			samples := make([]Sample, len(chains))
			for i, c := range chains {
				samples[i] = c.sample(adopted[i])
			}
			opt.Progress(samples)
		}
	}

	// Deterministic reduction: lowest best energy wins, ties broken by
	// chain index.
	win := chains[0]
	for _, c := range chains[1:] {
		if c.bestE < win.bestE {
			win = c
		}
	}
	best, bestE, bestS := sctx.polish(opt, m, win.best, win.bestE, win.bestS)
	trace := win.trace
	if n := len(trace); n > 0 && bestE < trace[n-1] {
		trace = append(trace, bestE)
	}
	if opt.Progress != nil {
		// Final batch: every member's closing state, with the winner's
		// post-polish energy on the winning slot.
		fin := make([]Sample, 0, K)
		for _, c := range chains {
			s := c.sample(false)
			s.Final = true
			if c == win {
				s.BestE, s.BestS = bestE, bestS
			}
			fin = append(fin, s)
		}
		opt.Progress(fin)
	}

	// Per-chain observability: accept/reject split, barrier adoptions and
	// wall time per portfolio member, plus portfolio-level aggregates.
	// Flushed once here — the hot loop only touches chain-local fields.
	if opt.Metrics != nil {
		reg := opt.Metrics
		reg.Gauge("anneal_chains").SetInt(int64(K))
		reg.Counter("anneal_exchanges_total").Add(exchanges)
		for _, c := range chains {
			reg.Counter(obs.Name("anneal_chain_accepts_total", "chain", c.idx)).Add(c.accepts)
			reg.Counter(obs.Name("anneal_chain_rejects_total", "chain", c.idx)).Add(c.rejects)
			reg.Counter(obs.Name("anneal_chain_exchanges_total", "chain", c.idx)).Add(c.adoptions)
			reg.Gauge(obs.Name("anneal_chain_seconds", "chain", c.idx)).Set(c.elapsed.Seconds())
		}
	}
	m.tempFinal.Set(win.temp)
	res := sctx.finish(best, bestE, bestS, trace, win.iters)
	m.finalCV.Set(res.FinalCV)
	return res
}
