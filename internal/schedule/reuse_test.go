package schedule

import (
	"fmt"
	"slices"
	"testing"
)

// referenceBuild is Build in DP mode with every Round's lookahead tree
// computed from scratch: options() is called at every frontier state
// instead of being read back from the previous Round's tree. It is the
// executable definition the option reuse of dpPick must reproduce.
func referenceBuild(t *testing.T, st *state) [][]int {
	t.Helper()
	var rounds [][]int
	for st.remaining > 0 {
		comb := st.referencePick()
		if len(comb) == 0 {
			t.Fatalf("reference: deadlock with %d atoms remaining", st.remaining)
		}
		rounds = append(rounds, comb)
		st.apply(comb)
		st.commit()
	}
	return rounds
}

func (st *state) referencePick() []int {
	options := st.options()
	if len(options) == 1 {
		return options[0]
	}
	bestIdx, bestCost := 0, int64(-1)
	for i, comb := range options {
		cost := st.combCost(comb) + st.referenceLookahead(comb, st.opt.lookahead()-1)
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return options[bestIdx]
}

func (st *state) referenceLookahead(comb []int, depth int) int64 {
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
		for _, next := range st.options() {
			c := st.combCost(next) + st.referenceLookahead(next, depth-1)
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
				want := referenceBuild(t, newState(d, opt))
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
