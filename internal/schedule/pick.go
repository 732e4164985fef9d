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
func (st *state) greedyPick(dst []int) []int {
	st.rankCandidates()
	return st.pickWithPolicy(policy{}, dst)
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

// rankCandidates sorts the frontier's candidate layers into st.cands by
// (rule, sample, topological position) and records where each rule's run
// ends in st.ruleAt. Every policy reads this one order: none changes a
// layer's rule, and deferRule2 only visits the rule-3 run before the
// rule-2 run. The rule-2 reference set (depths of traversed-but-
// unfinished layers in the current sample) is read from the
// incrementally-maintained state.activeDepth counters, so ranking walks
// the ready pairs only.
func (st *state) rankCandidates() {
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
	i := 0
	for r := 1; r <= 4; r++ {
		for i < len(cands) && cands[i].rule == r {
			i++
		}
		st.ruleAt[r] = i
	}
}

// pickWithPolicy is the shared selection engine: it appends the policy's
// combination, read off the ranked candidates, to dst.
func (st *state) pickWithPolicy(p policy, dst []int) []int {
	n, start := st.opt.Engines, len(dst)
	order := [4]int{1, 2, 3, 4}
	if p.deferRule2 {
		order = [4]int{1, 3, 2, 4}
	}
	for _, rule := range order {
		for _, c := range st.cands[st.ruleAt[rule-1]:st.ruleAt[rule]] {
			picked := len(dst) - start
			if picked >= n {
				return dst
			}
			// Swapping rules 2 and 3 keeps both past rule 1 and short of
			// rule 4, so these tests read the candidate's own rule.
			if p.onlyRule1 && rule > 1 && picked > 0 {
				return dst
			}
			if p.stayInSample && rule == 4 {
				return dst
			}
			k := min(n-picked, st.nready[c.pair])
			if p.longestFirst {
				dst = append(dst, st.longest(c.pair, k)...)
			} else {
				// ID order is the default within-layer order.
				dst = st.appendReady(dst, c.pair, k)
			}
		}
	}
	return dst
}

// longest returns the k ready atoms of pair p with the most cycles, most
// first and ties by ID. It keeps a bounded sorted selection instead of
// sorting the pair's ready atoms; the result is scratch, valid until the
// next call.
func (st *state) longest(p, k int) []int {
	lst := st.appendReady(st.lst[:0], p, st.nready[p])
	st.lst = lst
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

// dpPick evaluates up to maxOptions() priority-pruned combinations with
// bounded-lookahead recursion (the DP(G') of Algorithm 2) and returns the
// combination with the minimum total estimated cost.
//
// The lookahead tree is kept (see optNode), and the next Round starts from
// the chosen combination's subtree: Round t already computed the option
// lists there — the frontier after the chosen combination, and after it
// and each of its options — so Round t+1 reads them back instead of
// calling options() again. An option list is a pure function of the
// frontier state, so reuse cannot change a choice.
func (st *state) dpPick() []int {
	prev := st.carry
	st.cur ^= 1
	st.trees[st.cur] = st.trees[st.cur][:0]
	st.slabs[st.cur].reset()
	st.carry = -1
	root := st.newNode()
	options := st.optionsAt(prev, root)
	if len(options) == 1 {
		return options[0]
	}
	kids := st.expand(root, len(options))
	bestIdx, bestCost := 0, int64(-1)
	for i, comb := range options {
		cost := st.combCost(comb) + st.lookaheadCost(comb, st.opt.lookahead()-1, st.oldKid(prev, i), kids+int32(i))
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	st.carry = kids + int32(bestIdx)
	return options[bestIdx]
}

// optNode is one frontier state of a Round's lookahead tree: its option
// list, nil until computed, and the index of its first child in the same
// tree (children are contiguous, one per option), -1 until expanded.
// Trees are flat slices of nodes, double-buffered on the state: the Round
// being picked builds trees[cur] while reading the previous Round's tree.
type optNode struct {
	opts [][]int
	kids int32
}

// newNode appends an empty node to the current tree and returns its index.
func (st *state) newNode() int32 {
	st.trees[st.cur] = append(st.trees[st.cur], optNode{kids: -1})
	return int32(len(st.trees[st.cur]) - 1)
}

// expand appends n child nodes of node at to the current tree and returns
// the first one's index.
func (st *state) expand(at int32, n int) int32 {
	first := int32(len(st.trees[st.cur]))
	for range n {
		st.newNode()
	}
	st.trees[st.cur][at].kids = first
	return first
}

// oldKid returns the i-th child of node prev of the previous Round's tree,
// or -1 when prev is absent or was never expanded.
func (st *state) oldKid(prev int32, i int) int32 {
	if prev < 0 {
		return -1
	}
	if k := st.trees[st.cur^1][prev].kids; k >= 0 {
		return k + int32(i)
	}
	return -1
}

// optionsAt returns the option list of the current frontier, stored as
// node at of the current tree: node prev of the previous Round's tree
// describes the same frontier, and its list is reused when computed. A
// reused list is copied into the current slab, since the previous slab
// is reset with the previous tree at the next Round.
func (st *state) optionsAt(prev, at int32) [][]int {
	var opts [][]int
	if prev >= 0 {
		opts = st.trees[st.cur^1][prev].opts
	}
	if opts == nil {
		opts = st.options()
	} else {
		st.optReads++
		opts = st.slabs[st.cur].copyOf(opts)
	}
	st.trees[st.cur][at].opts = opts
	return opts
}

// slab holds the option lists of one lookahead tree: ints the atoms of
// every list, heads the lists. Both only grow until the tree is reset; a
// list never moves once written, so a tree node may keep a sub-slice of
// heads, and each of heads an ints sub-slice, until the reset.
type slab struct {
	ints  []int
	heads [][]int
}

func (s *slab) reset() { s.ints, s.heads = s.ints[:0], s.heads[:0] }

// keep records s.ints[start:] as the next list.
func (s *slab) keep(start int) {
	s.heads = append(s.heads, s.ints[start:len(s.ints):len(s.ints)])
}

// lists returns the lists kept since heads held first of them, or nil for
// none.
func (s *slab) lists(first int) [][]int {
	if len(s.heads) == first {
		return nil
	}
	return s.heads[first:len(s.heads):len(s.heads)]
}

// copyOf copies opts, lists of another slab, into s.
func (s *slab) copyOf(opts [][]int) [][]int {
	first := len(s.heads)
	for _, comb := range opts {
		start := len(s.ints)
		s.ints = append(s.ints, comb...)
		s.keep(start)
	}
	return s.lists(first)
}

// policies are the option generators, in preference order.
var policies = [...]policy{
	{},                   // pure priority rules
	{longestFirst: true}, // better Round packing of unequal atoms
	{stayInSample: true}, // lower latency for the current sample
	{onlyRule1: true},    // drain in-flight layers before widening
	{deferRule2: true},   // dependent layers before siblings
}

// options generates the pruned combination set for the current Round into
// the current slab, dropping a combination that selects the same atom set
// as an earlier one. Combinations hold distinct atoms, so two select the
// same set when they are equally long and one holds every atom of the
// other: optMask marks each atom with the kept options holding it.
func (st *state) options() [][]int {
	st.optLists++
	st.rankCandidates()
	maxOpts := st.opt.maxOptions()
	sl := &st.slabs[st.cur]
	first := len(sl.heads)
	for _, p := range policies {
		kept := sl.heads[first:]
		if len(kept) >= maxOpts {
			break
		}
		start := len(sl.ints)
		sl.ints = st.pickWithPolicy(p, sl.ints)
		comb := sl.ints[start:]
		if len(comb) == 0 || st.duplicate(comb, kept) {
			sl.ints = sl.ints[:start]
			continue
		}
		for _, id := range comb {
			st.optMask[id] |= 1 << len(kept)
		}
		sl.keep(start)
	}
	for _, comb := range sl.heads[first:] {
		for _, id := range comb {
			st.optMask[id] = 0
		}
	}
	return sl.lists(first)
}

// duplicate reports whether comb selects the atom set of a kept option.
func (st *state) duplicate(comb []int, kept [][]int) bool {
	m := uint8(1)<<len(kept) - 1
	for _, id := range comb {
		if m &= st.optMask[id]; m == 0 {
			return false
		}
	}
	for j, opt := range kept {
		if m&(1<<j) != 0 && len(opt) == len(comb) {
			return true
		}
	}
	return false
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
// The frontier after comb is node at of the current lookahead tree, and
// node prev (or -1) of the previous Round's tree (see dpPick).
func (st *state) lookaheadCost(comb []int, depth int, prev, at int32) int64 {
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
		options := st.optionsAt(prev, at)
		kids := st.expand(at, len(options))
		best := int64(-1)
		for i, next := range options {
			c := st.combCost(next) + st.lookaheadCost(next, depth-1, st.oldKid(prev, i), kids+int32(i))
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
