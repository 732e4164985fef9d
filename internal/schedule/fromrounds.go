package schedule

import (
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// FromRounds builds a Schedule from an explicit Round list, validating that
// every non-virtual atom appears exactly once, Rounds respect the engine
// budget, and every dependency is scheduled strictly earlier. Baseline
// orchestration strategies (Layer-Sequential, Rammer-style rTask packing)
// use this to plug into the same buffer manager and simulator as atomic
// dataflow.
func FromRounds(d *atom.DAG, rounds [][]int, opt Options) (*Schedule, error) {
	if opt.Engines <= 0 {
		return nil, fmt.Errorf("schedule: Engines = %d", opt.Engines)
	}
	if err := opt.EngineCfg.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{AtomRound: make([]int, d.NumAtoms())}
	for i := range s.AtomRound {
		s.AtomRound[i] = -1
	}
	s.ComputeCycles, s.MACs = priceAtoms(d, opt)
	for t, atoms := range rounds {
		if len(atoms) == 0 {
			return nil, fmt.Errorf("schedule: round %d empty", t)
		}
		if len(atoms) > opt.Engines {
			return nil, fmt.Errorf("schedule: round %d has %d atoms > %d engines",
				t, len(atoms), opt.Engines)
		}
		for _, id := range atoms {
			if id < 0 || id >= d.NumAtoms() {
				return nil, fmt.Errorf("schedule: round %d: unknown atom %d", t, id)
			}
			if d.Atoms[id].Task.Kind == graph.OpInput {
				return nil, fmt.Errorf("schedule: round %d schedules virtual atom %d", t, id)
			}
			if s.AtomRound[id] != -1 {
				return nil, fmt.Errorf("schedule: atom %d scheduled twice", id)
			}
			s.AtomRound[id] = t
		}
		s.Rounds = append(s.Rounds, Round{Atoms: append([]int(nil), atoms...)})
	}
	for _, a := range d.Atoms {
		if a.Task.Kind == graph.OpInput {
			continue
		}
		if s.AtomRound[a.ID] == -1 {
			return nil, fmt.Errorf("schedule: atom %d never scheduled", a.ID)
		}
		for _, dep := range a.Deps {
			if d.Atoms[dep].Task.Kind == graph.OpInput {
				continue
			}
			if s.AtomRound[dep] >= s.AtomRound[a.ID] {
				return nil, fmt.Errorf("schedule: atom %d (round %d) depends on %d (round %d)",
					a.ID, s.AtomRound[a.ID], dep, s.AtomRound[dep])
			}
		}
	}
	return s, nil
}
