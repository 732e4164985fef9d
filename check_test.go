package atomicflow

import (
	"slices"
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// checkedSolve solves tinyresnet on the default hardware and requires the
// solution to pass Check, so that every mutation below starts from a
// valid one. On 64 engines the critical path is the largest of the
// three lower bounds.
func checkedSolve(t *testing.T) (*Solution, HardwareConfig) {
	t.Helper()
	g, err := LoadModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	hw := DefaultHardware()
	sol, err := Orchestrate(g, Options{Hardware: &hw, SAIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Check(); err != nil {
		t.Fatalf("unmutated solution: %v", err)
	}
	return sol, hw
}

// roundLists copies the solution's Round lists.
func roundLists(sol *Solution) [][]int {
	rounds := make([][]int, len(sol.sched.Rounds))
	for i, r := range sol.sched.Rounds {
		rounds[i] = slices.Clone(r.Atoms)
	}
	return rounds
}

// withRounds returns a copy of sol whose schedule runs rounds instead.
func withRounds(sol *Solution, rounds [][]int) *Solution {
	s := *sol.sched
	s.Rounds = make([]schedule.Round, len(rounds))
	for i, r := range rounds {
		s.Rounds[i].Atoms = r
	}
	m := *sol
	m.sched = &s
	return &m
}

// without returns r with the atom at index i removed.
func without(r []int, i int) []int { return slices.Delete(slices.Clone(r), i, i+1) }

// mutateDeps returns the first schedule mutation move finds: move is
// offered each (consumer, its Round, producer, the producer's Round)
// of rounds and returns the mutated Round lists, or nil to pass.
func mutateDeps(t *testing.T, sol *Solution, move func(rounds [][]int, c, tc, p, tp int) [][]int) *Solution {
	t.Helper()
	rounds := roundLists(sol)
	roundOf := make(map[int]int)
	for tc, r := range rounds {
		for _, id := range r {
			roundOf[id] = tc
		}
	}
	for tc, r := range rounds {
		for _, c := range r {
			deps, _, off := sol.dag.Deps(c)
			for _, p := range deps {
				tp, ok := roundOf[int(p+off)]
				if !ok {
					continue // a virtual input atom
				}
				if m := move(roundLists(sol), c, tc, int(p+off), tp); m != nil {
					return withRounds(sol, m)
				}
			}
		}
	}
	t.Fatal("no Round pair admits the mutation")
	return nil
}

// TestCheckMutations breaks one invariant of a valid solution at a time
// and requires Check to fail naming it. A Report mutation must trip that
// invariant alone.
func TestCheckMutations(t *testing.T) {
	sol, hw := checkedSolve(t)
	engines := hw.Mesh.Engines()
	if sol.Report.NoCByteHops == 0 {
		t.Fatal("the solve moved no NoC bytes; the energy mutation needs some")
	}

	// The critical path of the schedule's own atom cycles, which the
	// Cycles mutation goes just below.
	finish := make(map[int]int64)
	var critical int64
	for _, r := range sol.sched.Rounds {
		for _, id := range r.Atoms {
			var ready int64
			deps, _, off := sol.dag.Deps(id)
			for _, p := range deps {
				ready = max(ready, finish[int(p+off)])
			}
			finish[id] = ready + sol.sched.ComputeCycles[id]
			critical = max(critical, finish[id])
		}
	}

	report := func(edit func(r *Report)) *Solution {
		m := *sol
		edit(&m.Report)
		return &m
	}
	for _, c := range []struct {
		name, want string
		sol        *Solution
		oneLine    bool
	}{
		{"producer moved into its consumer's round", "dependency broken",
			mutateDeps(t, sol, func(rounds [][]int, c, tc, p, tp int) [][]int {
				if len(rounds[tp]) < 2 || len(rounds[tc]) >= engines {
					return nil
				}
				rounds[tp] = without(rounds[tp], slices.Index(rounds[tp], p))
				rounds[tc] = append(rounds[tc], p)
				return rounds
			}), false},
		{"atom moved one round early", "dependency broken",
			mutateDeps(t, sol, func(rounds [][]int, c, tc, p, tp int) [][]int {
				if tp != tc-1 || len(rounds[tc]) < 2 || len(rounds[tp]) >= engines {
					return nil
				}
				rounds[tc] = without(rounds[tc], slices.Index(rounds[tc], c))
				rounds[tp] = append(rounds[tp], c)
				return rounds
			}), false},
		{"atom listed twice", "runs twice", func() *Solution {
			rounds := roundLists(sol)
			return withRounds(sol, append(rounds, []int{rounds[0][0]}))
		}(), false},
		{"round over the engine count", "over the engine count", func() *Solution {
			rounds := roundLists(sol)
			for len(rounds[0]) <= engines {
				rounds[0] = append(rounds[0], rounds[1]...)
				rounds = slices.Delete(rounds, 1, 2)
			}
			return withRounds(sol, rounds)
		}(), false},
		{"NoCBlockedCycles + 1", "cycle split",
			report(func(r *Report) { r.NoCBlockedCycles++ }), true},
		{"Energy.NoC x (1 + 1e-9)", "energy NoC",
			report(func(r *Report) { r.Energy.NoC *= 1 + 1e-9 }), true},
		{"Cycles below the critical path", "critical-path lower bound",
			report(func(r *Report) {
				// Keep the split and every quantity derived from Cycles
				// consistent, so that only the bound can trip.
				c := critical - 1
				r.Cycles, r.ComputeCycles, r.NoCBlockedCycles, r.DRAMBlockedCycles = c, c, 0, 0
				r.TimeMS = float64(c) / (hw.Engine.FreqMHz * 1e3)
				pes := float64(engines * hw.Engine.NumPEs() * hw.Engine.MACsPerPE)
				r.PEUtilization = float64(r.MACs) / (float64(c) * pes)
				r.ComputeUtil = r.PEUtilization
				r.Energy.Static = hw.Energy.StaticpJCyc * float64(c) * float64(engines)
			}), true},
	} {
		err := c.sol.Check()
		switch {
		case err == nil:
			t.Errorf("%s: Check passed", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		case c.oneLine && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: more than the one invariant tripped:\n%v", c.name, err)
		}
	}
}
