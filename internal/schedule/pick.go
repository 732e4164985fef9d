package schedule

import "slices"

// greedyPick selects up to N ready atoms following the paper's four
// priority rules (Sec. IV-B):
//
//  1. remaining atoms of already-traversed layers (their ifmaps/weights are
//     on-chip);
//  2. atoms of not-yet-traversed layers at the same depth as an in-flight
//     traversed layer (they share common inputs, releasing buffer early);
//  3. atoms of other ready (dependent) layers in the current sample;
//  4. atoms of later samples, entered only when the current sample cannot
//     fill all engines.
func (st *state) greedyPick() []int {
	return st.pickWithPolicy(policy{})
}

// policy perturbs the greedy decision to generate DP alternatives.
type policy struct {
	stayInSample bool // never apply rule 4
	longestFirst bool // within a rule, prefer atoms with more cycles
	onlyRule1    bool // do not start new layers this Round
	deferRule2   bool // swap the order of rules 2 and 3
}

// candidateLayer is one (sample, layer) with ready atoms, bucketed by rule.
type candidateLayer struct {
	pair   int
	sample int
	rule   int
	pos    int // topological position, for deterministic ordering
}

// pickWithPolicy is the shared selection engine. The rule-2 reference set
// (depths of traversed-but-unfinished layers in the current sample) is
// read from the incrementally-maintained state.activeDepth counters — the
// DP lookahead calls this for every option at every recursion level, so
// rebuilding the set here from the traversed pairs would put an
// O(traversed pairs) walk inside the scheduler's innermost loop.
func (st *state) pickWithPolicy(p policy) []int {
	n := st.opt.Engines
	cands := st.cands[:0]
	for _, pr := range st.readyPairs {
		sample, layer := pr/st.layers, pr%st.layers
		var rule int
		switch {
		case sample == st.curSample && st.traversed[pr]:
			rule = 1
		case sample == st.curSample && st.activeDepth[st.depthKey(pr)] > 0:
			rule = 2
		case sample == st.curSample:
			rule = 3
		default:
			rule = 4
		}
		if p.deferRule2 && rule == 2 {
			rule = 3
		} else if p.deferRule2 && rule == 3 {
			rule = 2
		}
		cands = append(cands, candidateLayer{pair: pr, sample: sample, rule: rule, pos: st.layerPos[layer]})
	}
	st.cands = cands
	// (rule, sample, pos) is a total order — pos is unique per layer and
	// (sample, layer) is unique per entry — so the unstable sort is
	// deterministic.
	slices.SortFunc(cands, func(a, b candidateLayer) int {
		if a.rule != b.rule {
			return a.rule - b.rule
		}
		if a.sample != b.sample {
			return a.sample - b.sample
		}
		return a.pos - b.pos
	})

	pick := make([]int, 0, n)
	for _, c := range cands {
		if len(pick) >= n {
			break
		}
		if p.onlyRule1 && c.rule > 1 && len(pick) > 0 {
			break
		}
		if p.stayInSample && c.rule == 4 {
			break
		}
		// Ready lists are sorted by ID, the default within-layer order.
		lst := st.ready[c.pair]
		k := min(n-len(pick), len(lst))
		if p.longestFirst {
			pick = append(pick, st.longest(lst, k)...)
		} else {
			pick = append(pick, lst[:k]...)
		}
	}
	return pick
}

// longest returns the k atoms of the ID-sorted lst with the most cycles,
// most first and ties by ID. It keeps a bounded sorted selection instead
// of sorting the whole list; the result is scratch, valid until the next
// call.
func (st *state) longest(lst []int, k int) []int {
	top := st.top[:0]
	for _, id := range lst {
		c := st.cycles[id]
		// lst ascends by ID, so id loses every cycle tie with top.
		if len(top) == k && st.cycles[top[k-1]] >= c {
			continue
		}
		lo, hi := 0, len(top)
		for lo < hi {
			if m := (lo + hi) / 2; st.cycles[top[m]] >= c {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if len(top) == k {
			top = top[:k-1]
		}
		top = slices.Insert(top, lo, id)
	}
	st.top = top
	return top
}

// dpPick evaluates up to MaxOptions priority-pruned combinations with
// bounded-lookahead recursion (the DP(G') of Algorithm 2) and returns the
// combination with the minimum total estimated cost.
func (st *state) dpPick() []int {
	options := st.options()
	if len(options) == 1 {
		return options[0]
	}
	bestIdx, bestCost := 0, int64(-1)
	for i, comb := range options {
		cost := st.combCost(comb) + st.lookaheadCost(comb, st.opt.lookahead()-1)
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return options[bestIdx]
}

// policies are the option generators, in preference order.
var policies = [...]policy{
	{},                   // pure priority rules
	{longestFirst: true}, // better Round packing of unequal atoms
	{stayInSample: true}, // lower latency for the current sample
	{onlyRule1: true},    // drain in-flight layers before widening
	{deferRule2: true},   // dependent layers before siblings
}

// options generates the pruned combination set for the current Round,
// dropping a combination that selects the same atom set as an earlier one.
func (st *state) options() [][]int {
	maxOpts := st.opt.maxOptions()
	var out [][]int
	for _, p := range policies {
		if len(out) >= maxOpts {
			break
		}
		comb := st.pickWithPolicy(p)
		if len(comb) == 0 {
			continue
		}
		// st.sorted[:len(out)] holds the kept combinations' sorted atom
		// sets; slot len(out) takes this one's.
		j := len(out)
		if j == len(st.sorted) {
			st.sorted = append(st.sorted, nil)
		}
		sorted := append(st.sorted[j][:0], comb...)
		slices.Sort(sorted)
		st.sorted[j] = sorted
		if slices.ContainsFunc(st.sorted[:j], func(prev []int) bool { return slices.Equal(prev, sorted) }) {
			continue
		}
		out = append(out, comb)
	}
	return out
}

// combCost prices one Round: the engines synchronize on the slowest atom.
func (st *state) combCost(comb []int) int64 {
	var worst int64
	for _, id := range comb {
		if c := st.cycles[id]; c > worst {
			worst = c
		}
	}
	return worst
}

// lookaheadCost recursively schedules `depth` more Rounds greedily after
// applying comb, then closes with the packing lower bound
// remainingWork / N — the DP(G') estimate for the un-traversed sub-DAG.
func (st *state) lookaheadCost(comb []int, depth int) int64 {
	if depth <= 0 {
		// At the horizon only the work comb leaves matters, and that needs
		// no apply/rollback: these leaves are most of the lookahead tree.
		if st.remaining == len(comb) {
			return 0
		}
		left := st.totalWork
		for _, id := range comb {
			left -= st.cycles[id]
		}
		return left / int64(st.opt.Engines)
	}
	st.apply(comb)
	var cost int64
	if st.remaining > 0 {
		options := st.options()
		best := int64(-1)
		for _, next := range options {
			c := st.combCost(next) + st.lookaheadCost(next, depth-1)
			if best < 0 || c < best {
				best = c
			}
		}
		if best < 0 {
			best = st.totalWork / int64(st.opt.Engines)
		}
		cost = best
	}
	st.rollback()
	return cost
}
