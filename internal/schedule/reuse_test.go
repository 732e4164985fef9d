package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// referenceDP is Build in DP mode with every Round's lookahead tree
// computed from scratch by referenceOptions: option lists are never read
// back from the previous Round's tree. It is the executable definition
// the option reuse of dpPick must reproduce. With check set, it also
// compares options() with referenceOptions at every frontier it visits.
type referenceDP struct {
	t         *testing.T
	st        *state
	check     bool
	frontiers int
}

func (r *referenceDP) build() [][]int {
	r.t.Helper()
	st := r.st
	var rounds [][]int
	for st.remaining > 0 {
		st.slabs[st.cur].reset()
		comb := r.pick()
		if len(comb) == 0 {
			r.t.Fatalf("reference: deadlock with %d atoms remaining", st.remaining)
		}
		rounds = append(rounds, comb)
		st.apply(comb)
		st.commit()
	}
	return rounds
}

// options returns the frontier's reference option lists, checking
// options() against them when r.check is set.
func (r *referenceDP) options() [][]int {
	r.frontiers++
	want := r.st.referenceOptions()
	if r.check {
		if got := r.st.options(); !slices.EqualFunc(got, want, slices.Equal) {
			r.t.Fatalf("frontier %d: options() = %v, reference %v", r.frontiers, got, want)
		}
	}
	return want
}

func (r *referenceDP) pick() []int {
	st := r.st
	options := r.options()
	if len(options) == 1 {
		return options[0]
	}
	bestIdx, bestCost := 0, int64(-1)
	for i, comb := range options {
		cost := st.combCost(comb) + r.lookahead(comb, st.opt.lookahead()-1)
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return options[bestIdx]
}

func (r *referenceDP) lookahead(comb []int, depth int) int64 {
	st := r.st
	if depth <= 0 {
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
		best := int64(-1)
		for _, next := range r.options() {
			c := st.combCost(next) + r.lookahead(next, depth-1)
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

// referenceOptions is options() as first written: each policy ranks the
// frontier's candidate layers afresh, with rules 2 and 3 swapped under
// deferRule2, and picks into a new list; a list selecting the same atom
// set as a kept one is dropped by comparing sorted copies.
func (st *state) referenceOptions() [][]int {
	var out, sorted [][]int
	for _, p := range policies {
		if len(out) >= st.opt.maxOptions() {
			break
		}
		comb := st.referencePick(p)
		if len(comb) == 0 {
			continue
		}
		set := slices.Clone(comb)
		slices.Sort(set)
		if slices.ContainsFunc(sorted, func(prev []int) bool { return slices.Equal(prev, set) }) {
			continue
		}
		sorted = append(sorted, set)
		out = append(out, comb)
	}
	return out
}

// referencePick is one policy's combination, ranked and read afresh.
func (st *state) referencePick(p policy) []int {
	var cands []candidateLayer
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
	slices.SortFunc(cands, func(a, b candidateLayer) int {
		return cmp.Or(a.rule-b.rule, a.sample-b.sample, a.pos-b.pos)
	})
	n := st.opt.Engines
	var pick []int
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
		lst := st.appendReady(nil, c.pair, st.nready[c.pair])
		k := min(n-len(pick), len(lst))
		if p.longestFirst {
			// Most cycles first, ties by ID.
			slices.SortStableFunc(lst, func(a, b int) int { return cmp.Compare(st.cycles[b], st.cycles[a]) })
		}
		pick = append(pick, lst[:k]...)
	}
	return pick
}

// TestDPOptionReuseMatchesReference pins the DP option reuse as a pure
// speed-up: on three zoo models at batch 1, 3 and 8 the production
// schedule's Rounds equal the reference's, Round for Round.
func TestDPOptionReuseMatchesReference(t *testing.T) {
	for _, model := range []string{"resnet50", "inceptionv3", "deepchain1k"} {
		for _, batch := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/b%d", model, batch), func(t *testing.T) {
				d := dagFor(t, model, batch)
				opt := opts(64, DP)
				got, err := Build(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := (&referenceDP{t: t, st: newState(d, opt)}).build()
				if len(got.Rounds) != len(want) {
					t.Fatalf("%d Rounds, reference %d", len(got.Rounds), len(want))
				}
				for r, round := range got.Rounds {
					if !slices.Equal(round.Atoms, want[r]) {
						t.Fatalf("Round %d = %v, reference %v", r, round.Atoms, want[r])
					}
				}
			})
		}
	}
}

// TestOptionsMatchReference checks that ranking the candidate layers once
// per frontier, writing the option lists into the slab and finding
// duplicates by atom masks is a pure speed-up: at every frontier a
// reference DP build of three zoo models at batch 1 and 8 visits,
// options() returns referenceOptions' lists.
func TestOptionsMatchReference(t *testing.T) {
	for _, model := range []string{"resnet50", "inceptionv3", "deepchain1k"} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/b%d", model, batch), func(t *testing.T) {
				r := &referenceDP{t: t, st: newState(dagFor(t, model, batch), opts(64, DP)), check: true}
				r.build()
				if r.frontiers == 0 {
					t.Fatal("no frontier visited")
				}
			})
		}
	}
}
