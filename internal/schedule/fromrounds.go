package schedule

import (
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/check"
)

// FromRounds builds a Schedule from an explicit Round list, which must be
// a legal execution of d on opt.Engines engines (check.Rounds): every
// non-virtual atom appears exactly once, Rounds respect the engine
// budget, and every dependency is scheduled strictly earlier. Baseline
// orchestration strategies (Layer-Sequential, Rammer-style rTask packing)
// use this to plug into the same buffer manager and simulator as atomic
// dataflow.
func FromRounds(d *atom.DAG, rounds [][]int, opt Options) (*Schedule, error) {
	if err := check.Rounds(d, rounds, opt.Engines); err != nil {
		return nil, err
	}
	if err := opt.EngineCfg.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{AtomRound: make([]int, d.NumAtoms())}
	for i := range s.AtomRound {
		s.AtomRound[i] = -1
	}
	s.ComputeCycles, s.MACs = priceAtoms(d, opt)
	s.Rounds = make([]Round, len(rounds))
	for t, atoms := range rounds {
		for _, id := range atoms {
			s.AtomRound[id] = t
		}
		s.Rounds[t] = Round{Atoms: append([]int(nil), atoms...)}
	}
	return s, nil
}
