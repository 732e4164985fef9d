package anneal

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/par"
)

// Options tunes Algorithm 1. Zero values select the defaults noted on
// each field.
type Options struct {
	MaxIters       int   // ite_max (default 600)
	Seed           int64 // RNG seed (default 1)
	MaxTilesPerLay int   // atom-count cap per layer (default 1024)

	// Oracle prices candidate atoms (default: the engine model directly).
	// Pass the run's shared instrumented oracle to count the search's
	// evaluations with the rest of the run's.
	Oracle cost.Oracle

	// Metrics, when non-nil, receives the search's accept/reject
	// counters, temperature trajectory and accepted energy deltas (see
	// internal/obs). The nil default costs nothing.
	Metrics *obs.Registry

	// Ctx, when non-nil, lets callers abandon the search: SA polls it
	// each iteration and returns the best state found so far as soon as
	// it is cancelled. Cancellation only truncates the search — an
	// uncancelled context never perturbs the seeded trajectory.
	Ctx context.Context

	// Chains is the width of the search portfolio (default 1). The
	// iteration budget MaxIters is split across that many
	// concurrently-run, independently-seeded SA chains (seeds derived
	// from Seed via splitmix64) that exchange best states at
	// deterministic iteration barriers. Total Metropolis work stays
	// ~MaxIters, so a wider portfolio is a different search on the same
	// budget, not a faster one; measured over the zoo it often finds a
	// lower latency (DESIGN §8). The result is bit-identical for a fixed
	// (Seed, Chains) pair regardless of GOMAXPROCS. Chains <= 1 is the
	// one-chain portfolio, which follows exactly the paper's Algorithm 1
	// trajectory: chain 0 keeps Seed and a lone chain never exchanges.
	Chains int

	// Progress, when non-nil, receives one Sample per portfolio chain at
	// every exchangeEvery iteration barrier, plus a final batch (Final
	// set) after the polish sweep. The hook runs on the coordinating
	// goroutine between chain segments — never concurrently with chain
	// execution — and only observes: chain RNGs and states are untouched
	// while it runs, so installing it leaves every trajectory (and every
	// pinned digest) bit-identical. Keep the hook cheap — the whole
	// search blocks while it executes.
	Progress func([]Sample)

	// verify, when non-nil, sees every scored target with its score.
	// Only this package's tests set it, to the from-scratch cross-check
	// in delta_test.go; it must not change the trajectory.
	verify func(s *search, target, mean, variance float64)
}

// Sample is one per-chain observation of search progress, delivered
// through Options.Progress. Energies are the raw cycle variance the
// search minimizes; CV converts to the paper's scale-free load-balance
// metric.
type Sample struct {
	Chain     int     // portfolio slot index (0 for a one-chain search)
	Iters     int     // chain-local Metropolis iterations executed so far
	Temp      float64 // current temperature
	BestE     float64 // best energy (cycle variance) this chain has seen
	BestS     float64 // unified cycle of that best state
	Adopted   bool    // chain adopted the global best at this barrier
	Converged bool    // chain hit the epsilon target
	Final     bool    // emitted once, after the polish sweep
}

// CV returns the sample's coefficient of variation sqrt(BestE)/BestS
// (0 when BestS is 0).
func (s Sample) CV() float64 {
	if s.BestS <= 0 {
		return 0
	}
	return math.Sqrt(s.BestE) / s.BestS
}

// Algorithm 1's fixed hyperparameters. The temperature schedule is
// pinned: raising temp to the often-assumed 1.0 would change every
// seeded SA trajectory in the repository.
const (
	lenFrac        = 0.25 // movement length as a fraction of the state
	epsilon        = 0.01 // convergence threshold on CV^2 = Var/Mean^2
	temp           = 0.1  // initial temperature
	lambda         = 0.98 // temperature decay per iteration
	maxSplits      = 10   // candidate extents per dimension
	bufferFraction = 0.5  // usable fraction of the engine buffer, the rest double-buffers
	exchangeEvery  = 50   // chain-local iterations between portfolio barriers
)

func (o Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o Options) maxIters() int { return knob.SAIters.Or(o.MaxIters) }
func (o Options) seed() int64   { return knob.Seed.Or(o.Seed) }
func (o Options) maxTiles() int { return knob.MaxTiles.Or(o.MaxTilesPerLay) }
func (o Options) chains() int   { return knob.Chains.Or(o.Chains) }

// Result is the outcome of atomic tensor generation.
type Result struct {
	Spec        atom.Spec     // chosen partition per layer (compute + vector layers)
	LayerCycles map[int]int64 // nominal per-atom cycles of each compute layer
	Trace       []float64     // energy (Var of cycles) after each iteration
	Iters       int           // iterations executed
	FinalVar    float64       // final energy
	FinalCV     float64       // final coefficient of variation of atom cycles
	MeanCycle   float64       // the unified execution cycle S
}

// state is one assignment of candidate indices to compute layers, stored
// densely in search.all order (participating layers first, stragglers
// after), together with the exact integer sums its energy derives from.
// Every constructor and mutator (randomState, argmin, crossover, mutate)
// keeps acc in sync with choice, so scoring a state never walks the
// layers again.
type state struct {
	choice []int // search.all index -> candidate index
	acc    accum // S1/S2 sums over the first nOrder choices
}

// saMetrics bundles the run-wide search instruments. Every instrument is
// a nil-safe no-op when Options.Metrics is nil, and all of them are
// atomic, so concurrent portfolio chains share one set: the aggregate
// counters then sum over chains.
type saMetrics struct {
	iters     *obs.Counter
	picks     *obs.Counter
	accepts   *obs.Counter
	rejects   *obs.Counter
	tempHist  *obs.Histogram
	delta     *obs.Histogram
	tempFinal *obs.Gauge
	finalCV   *obs.Gauge
}

func newSAMetrics(opt Options) saMetrics {
	// Search observability: Metropolis accept/reject rates, the
	// temperature trajectory and the energy deltas of accepted moves.
	return saMetrics{
		iters:     opt.Metrics.Counter("anneal_iterations_total"),
		picks:     opt.Metrics.Counter("anneal_picks_total"),
		accepts:   opt.Metrics.Counter("anneal_accepts_total"),
		rejects:   opt.Metrics.Counter("anneal_rejects_total"),
		tempHist:  opt.Metrics.Histogram("anneal_temperature", obs.ExpBuckets(1e-4, 2, 12)),
		delta:     opt.Metrics.Histogram("anneal_accepted_energy_delta", obs.ExpBuckets(1, 8, 12)),
		tempFinal: opt.Metrics.Gauge("anneal_temperature_final"),
		finalCV:   opt.Metrics.Gauge("anneal_final_cv"),
	}
}

// saChain is one Metropolis trajectory of Algorithm 1. A chain owns its
// RNG, so its path is a pure function of its seed and of the states
// injected at exchange barriers — never of goroutine scheduling.
//
// The accepted state is held as scalars only (E, S): Algorithm 1's
// proposal is the argmin image of the shifted target, which depends on
// the current state only through S, so the chain never needs the current
// choice vector. The best state is held as the target that produced it.
type saChain struct {
	idx int
	rng *rand.Rand

	E, S float64 // energy / unified cycle of the accepted state

	best         pinned
	bestE, bestS float64

	temp, lenAbs float64
	trace        []float64
	iters        int
	converged    bool

	// Per-chain observability, flushed to labeled instruments by the
	// portfolio after the reduction.
	accepts, rejects int64
	adoptions        int64
	elapsed          time.Duration
}

// newChain seeds a chain and draws its random initial state
// (Algorithm 1 lines 1-7).
func newChain(idx int, seed int64, sctx *search) *saChain {
	c := &saChain{idx: idx, rng: rand.New(rand.NewSource(seed))}
	// Line 1-4: random initialization of every layer's atom size.
	cur := sctx.randomState(c.rng)
	// Line 5-7: initial unified cycle S = mean, energy E = Var.
	c.S, c.E = cur.acc.meanVariance()
	c.best, c.bestE, c.bestS = pinned{st: cur}, c.E, c.S
	c.temp = temp
	c.lenAbs = c.S * lenFrac
	return c
}

// pinned is a state held without materializing it: the argmin image of
// target t, or st itself when st.choice is set (a chain's random initial
// state, which no target produces). States are never mutated once
// built, so chains may share one.
type pinned struct {
	st state
	t  float64
}

// run executes up to n more Metropolis iterations, stopping early on
// convergence or context cancellation (Algorithm 1 lines 8-25).
func (c *saChain) run(sctx *search, opt Options, n int, m saMetrics) {
	start := time.Now()
	defer func() { c.elapsed += time.Since(start) }()
	for done := 0; done < n; done++ {
		if opt.cancelled() {
			return
		}
		// Line 10: neighboring state.
		Smove := c.S + (c.rng.Float64()*2-1)*c.lenAbs
		if Smove < 1 {
			Smove = 1
		}
		// Line 11-14: re-pick each layer's atom closest to S^move, scored
		// from the exact accumulators without building the state.
		moveS, Emove := sctx.score(Smove)
		m.picks.Add(int64(len(sctx.groups)))
		if opt.verify != nil {
			opt.verify(sctx, Smove, moveS, Emove)
		}
		// Line 16-22: Metropolis acceptance with decaying temperature.
		// Energies are normalized by the squared state (i.e. compared as
		// squared coefficients of variation) so the temperature schedule
		// is scale-free across workloads.
		c.temp *= lambda
		c.iters++
		m.iters.Inc()
		m.tempHist.Observe(c.temp)
		p := math.Exp((c.E - Emove) / (lambda * c.temp * (c.S*c.S + 1)))
		if c.rng.Float64() <= p {
			c.accepts++
			m.accepts.Inc()
			m.delta.Observe(math.Abs(c.E - Emove))
			c.E, c.S = Emove, moveS
			c.lenAbs = c.S * lenFrac
			// E only changes on acceptance (or barrier adoption, handled
			// by the portfolio), so the best state is re-pinned exactly on
			// strict improvement.
			if c.E < c.bestE {
				c.best, c.bestE, c.bestS = pinned{t: Smove}, c.E, c.S
			}
		} else {
			c.rejects++
			m.rejects.Inc()
		}
		c.trace = append(c.trace, c.bestE)
		// Line 23-25: convergence on normalized variance.
		if c.bestE/(c.bestS*c.bestS+1) <= epsilon {
			c.converged = true
			return
		}
	}
}

// sample snapshots the chain's progress for Options.Progress. Called
// only between segments on the coordinating goroutine, so the reads are
// unsynchronized by construction.
func (c *saChain) sample(adopted bool) Sample {
	return Sample{
		Chain:     c.idx,
		Iters:     c.iters,
		Temp:      c.temp,
		BestE:     c.bestE,
		BestS:     c.bestS,
		Adopted:   adopted,
		Converged: c.converged,
	}
}

// polish is the deterministic post-search sweep ("for better
// convergence"): a grid of unified-cycle targets around the best state,
// keeping the minimum by strict less-than in grid order. It returns the
// winner materialized: at most one argmin build per search.
func (s *search) polish(opt Options, m saMetrics, best pinned, bestE, bestS float64) (state, float64, float64) {
	const n = 97
	lo, hi := bestS*0.2, bestS*2.5
	for i := 0; i < n && !opt.cancelled(); i++ {
		t := lo + (hi-lo)*float64(i)/(n-1)
		mean, e := s.score(t)
		m.picks.Add(int64(len(s.groups)))
		if opt.verify != nil {
			opt.verify(s, t, mean, e)
		}
		if e < bestE {
			best, bestE, bestS = pinned{t: t}, e, mean
		}
	}
	if best.st.choice != nil {
		return best.st, bestE, bestS
	}
	m.picks.Add(int64(len(s.all)))
	return s.argmin(best.t), bestE, bestS
}

// search carries the immutable per-layer candidate lists.
type search struct {
	g   *graph.Graph
	cfg engine.Config
	opt Options
	orc cost.Oracle

	// all holds the compute layer IDs, the layers participating in the
	// energy first and the stragglers after; lcAt[i] is all[i]'s
	// candidates.
	//
	// Stragglers are layers whose minimum achievable atom cycle is far
	// above the typical layer's (e.g. a weight-bound FC whose coarsest
	// serialization already exceeds every CONV option). They can never
	// meet a common unified cycle, so they are excluded from the variance
	// (they would anchor S uselessly high, starving Round packing) and
	// simply take their closest candidate at assembly time.
	all    []int
	lcAt   []layerCands
	nOrder int // first nOrder entries of all participate in the energy

	// groups are the distinct candidate lists of the energy layers, each
	// with its multiplicity (see delta.go).
	groups []pickGroup
}

func newSearch(g *graph.Graph, cfg engine.Config, df engine.Dataflow, opt Options) *search {
	s := &search{g: g, cfg: cfg, opt: opt, orc: cost.Or(opt.Oracle)}
	// Candidate generation is embarrassingly parallel per layer, and a pure
	// function of (kind, shape, cfg, df, opt) — so layers with identical
	// shapes share one generated list (deep networks repeat the same block
	// hundreds of times), and the worker pool changes nothing about the
	// candidate lists — and therefore nothing about the seeded SA/GA
	// trajectory — only the wall-clock. The shared slices are read-only
	// everywhere downstream.
	ids := g.ComputeLayers()
	built := make([]layerCands, len(ids))
	type candKey struct {
		kind  graph.OpKind
		shape graph.Shape
	}
	keys := make([]candKey, len(ids))
	uniq := make(map[candKey]int, len(ids))
	var uniqIdx []int
	for i, lid := range ids {
		l := g.Layer(lid)
		keys[i] = candKey{l.Kind, l.Shape}
		if _, ok := uniq[keys[i]]; !ok {
			uniq[keys[i]] = i
			uniqIdx = append(uniqIdx, i)
		}
	}
	par.ForEach(len(uniqIdx), func(k int) {
		l := g.Layer(ids[uniqIdx[k]])
		built[uniqIdx[k]] = newLayerCands(l, genCandidates(l, cfg, df, opt, s.orc))
	})
	for i, lid := range ids {
		if j := uniq[keys[i]]; j != i {
			built[i] = built[j]
			built[i].layer = g.Layer(lid)
		}
	}
	mins := make([]int64, len(ids))
	for i := range built {
		mins[i] = built[i].cands[0].cycles
	}
	medianMin := median(mins)
	s.all = make([]int, 0, len(ids))
	s.lcAt = make([]layerCands, 0, len(ids))
	for _, straggling := range []bool{false, true} {
		for i, lid := range ids {
			if (medianMin > 0 && mins[i] > 4*medianMin) == straggling {
				s.all = append(s.all, lid)
				s.lcAt = append(s.lcAt, built[i])
			}
		}
		if !straggling {
			s.nOrder = len(s.all)
		}
	}
	// Shape-identical layers share one cands slice, so the backing array
	// identifies a distinct list.
	group := make(map[*candidate]int, s.nOrder)
	for i := range s.lcAt[:s.nOrder] {
		k := &s.lcAt[i].cands[0]
		if j, ok := group[k]; ok {
			s.groups[j].n++
			continue
		}
		group[k] = len(s.groups)
		s.groups = append(s.groups, pickGroup{lc: &s.lcAt[i], n: 1})
	}
	return s
}

// randomState draws a uniform candidate per participating layer, with the
// accumulators built alongside. Layers are weighted uniformly in the
// energy: weighting by atom count would reward the degenerate attractor
// of one layer shattered into thousands of identical tiny atoms (the
// variance collapses because the tiny atoms become the population).
func (s *search) randomState(rng *rand.Rand) state {
	st := state{choice: make([]int, len(s.all)), acc: accum{n: s.nOrder}}
	for i := 0; i < s.nOrder; i++ {
		c := rng.Intn(len(s.lcAt[i].cands))
		st.choice[i] = c
		st.acc.add(s.lcAt[i].cands[c].cycles)
	}
	// Stragglers keep the zero value: the minimum-cycle candidate.
	return st
}

// argmin picks, for every layer, the candidate closest to target cycles
// (Algorithm 1 line 13). Stragglers participate too: with the target
// below their floor this selects their minimum-cycle candidate.
func (s *search) argmin(target float64) state {
	t := targetOf(target)
	st := state{choice: make([]int, len(s.all)), acc: accum{n: s.nOrder}}
	for i := range s.all {
		c := s.lcAt[i].pick(t)
		st.choice[i] = c
		if i < s.nOrder {
			st.acc.add(s.lcAt[i].cands[c].cycles)
		}
	}
	return st
}

// median returns the middle value of xs (xs is not modified).
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int64(nil), xs...)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

// finish assembles the Result: compute-layer partitions from the chosen
// state plus heuristic partitions for vector-unit layers sized to the
// unified cycle S.
func (s *search) finish(st state, E, S float64, trace []float64, iters int) Result {
	res := Result{
		Spec:        make(atom.Spec),
		LayerCycles: make(map[int]int64),
		Trace:       trace,
		Iters:       iters,
		FinalVar:    E,
		MeanCycle:   S,
	}
	if S > 0 {
		res.FinalCV = math.Sqrt(E) / S
	}
	for i, lid := range s.all {
		c := s.lcAt[i].cands[st.choice[i]]
		res.Spec[lid] = c.part
		res.LayerCycles[lid] = c.cycles
	}
	// Vector-unit layers (pool/eltwise/global-pool): tile along H (and C)
	// so one atom's vector time is at most the unified cycle S.
	for _, l := range s.g.Layers {
		if l.Kind.IsCompute() || l.Kind == graph.OpConcat || l.Kind == graph.OpInput {
			continue
		}
		res.Spec[l.ID] = vectorPartition(l, s.cfg, S, s.opt.maxTiles(), s.orc)
	}
	return res
}

// vectorPartition sizes a vector-unit layer's atoms so each takes at most
// targetCycles on the vector unit, splitting along H first, then C.
func vectorPartition(l *graph.Layer, cfg engine.Config, targetCycles float64, maxTiles int, orc cost.Oracle) atom.Partition {
	sh := l.Shape
	whole := orc.Evaluate(cfg, engine.KCPartition, engine.TaskFromLayer(l))
	if targetCycles < 1 {
		targetCycles = 1
	}
	parts := int(math.Ceil(float64(whole.Cycles) / targetCycles))
	if parts < 1 {
		parts = 1
	}
	if parts > maxTiles {
		parts = maxTiles
	}
	hp := ceilDiv(sh.Ho, parts)
	cop := sh.Co
	if hp < 1 {
		hp = 1
	}
	if remaining := ceilDiv(parts, sh.Ho); hp == 1 && remaining > 1 {
		cop = ceilDiv(sh.Co, remaining)
		if cop < 1 {
			cop = 1
		}
	}
	return atom.Partition{Hp: hp, Wp: sh.Wo, Cop: cop}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
