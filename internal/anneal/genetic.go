package anneal

import (
	"math/rand"
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// GAOptions tunes the genetic-algorithm comparator used by the paper's
// Fig. 5b convergence study.
type GAOptions struct {
	Options
	Population int     // default 24
	Elite      int     // individuals copied unchanged (default 2)
	MutateProb float64 // per-gene mutation probability (default 0.08)
}

func (o GAOptions) population() int {
	if o.Population <= 1 {
		return 24
	}
	return o.Population
}
func (o GAOptions) elite() int {
	if o.Elite <= 0 {
		return 2
	}
	return o.Elite
}
func (o GAOptions) mutateProb() float64 {
	if o.MutateProb <= 0 {
		return 0.08
	}
	return o.MutateProb
}

// GA runs a genetic algorithm over the same candidate space as SA:
// an individual is a per-layer candidate choice; fitness is the negated
// variance of atom execution cycles. Its Trace records the best energy per
// generation (one generation ~ one Trace entry, like SA's per-iteration
// trace), exhibiting the mutation-driven rises the paper observes.
func GA(g *graph.Graph, cfg engine.Config, df engine.Dataflow, opt GAOptions) Result {
	sctx := newSearch(g, cfg, df, opt.Options)
	best, bestE, trace, gens := runGA(sctx, opt, opt.seed())
	return sctx.finish(best, bestE, best.acc.mean(), trace, gens)
}

// runGA is the GA trajectory on an existing search context. It polls
// cancellation between generations (returning the best-so-far) and is
// otherwise a pure function of (sctx, opt, seed).
func runGA(sctx *search, opt GAOptions, seed int64) (state, float64, []float64, int) {
	rng := rand.New(rand.NewSource(seed))

	pop := make([]state, opt.population())
	for i := range pop {
		pop[i] = sctx.randomState(rng)
	}
	// States carry exact accumulators, so fitness is O(1) per call — the
	// per-generation sort no longer walks every layer per comparison.
	energy := func(st state) float64 { return st.acc.variance() }

	best := pop[0]
	bestE := energy(best)
	var trace []float64
	gens := 0
	for gens = 0; gens < opt.maxIters(); gens++ {
		if opt.cancelled() {
			break
		}
		// Rank by energy ascending (lower variance = fitter).
		sort.Slice(pop, func(i, j int) bool { return energy(pop[i]) < energy(pop[j]) })
		if e := energy(pop[0]); e < bestE {
			bestE, best = e, cloneState(pop[0])
		}
		// Unlike SA's monotone best-trace, GA's trace follows the current
		// generation's champion, which mutation can make worse — the
		// abrupt rises/falls the paper notes in Fig. 5b.
		trace = append(trace, energy(pop[0]))
		if m := best.acc.mean(); bestE/(m*m+1) <= opt.epsilon() {
			gens++
			break
		}
		next := make([]state, 0, len(pop))
		for i := 0; i < opt.elite() && i < len(pop); i++ {
			next = append(next, cloneState(pop[i]))
		}
		for len(next) < len(pop) {
			a := tournament(pop, energy, rng)
			b := tournament(pop, energy, rng)
			child := crossover(sctx, a, b, rng)
			mutate(sctx, &child, rng, opt.mutateProb())
			next = append(next, child)
		}
		pop = next
	}
	return best, bestE, trace, gens
}

func cloneState(st state) state {
	return state{choice: append([]int(nil), st.choice...), acc: st.acc}
}

func tournament(pop []state, energy func(state) float64, rng *rand.Rand) state {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if energy(a) <= energy(b) {
		return a
	}
	return b
}

func crossover(s *search, a, b state, rng *rand.Rand) state {
	// Straggler genes keep the zero value (their minimum-cycle candidate);
	// only energy-participating layers cross over, as in the SA moves. The
	// child's accumulators are built alongside the genes.
	c := state{choice: make([]int, len(s.all)), acc: accum{n: s.nOrder}}
	for i := 0; i < s.nOrder; i++ {
		g := a.choice[i]
		if rng.Intn(2) != 0 {
			g = b.choice[i]
		}
		c.choice[i] = g
		c.acc.add(s.lcAt[i].cands[g].cycles)
	}
	return c
}

// mutate flips genes in place; set keeps the accumulators in sync.
func mutate(s *search, st *state, rng *rand.Rand, prob float64) {
	for i := 0; i < s.nOrder; i++ {
		if rng.Float64() < prob {
			st.set(s, i, rng.Intn(len(s.lcAt[i].cands)))
		}
	}
}
