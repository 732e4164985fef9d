// Package schedule implements the paper's Algorithm 2: atomic-DAG
// scheduling. The DAG is executed in discrete Rounds; each Round selects at
// most N ready atoms (one per engine), synchronized by the last to finish
// (paper Sec. III). The combination space per Round is pruned with the four
// priority rules of Sec. IV-B, and a bounded-lookahead dynamic program over
// the pruned option set picks the combination minimizing the Round cost
// plus the recursively-estimated cost of the remaining sub-DAG — exactly
// the paper's optimal-substructure formulation with the same pruning, made
// tractable by bounding recursion depth and option fan-out.
//
// Two modes are exposed: Greedy applies the priority rules alone and scales
// to DAGs with hundreds of thousands of atoms; DP (the default) explores
// MaxOptions alternatives per Round with Lookahead rounds of recursion and
// subsumes the greedy choice, so it never schedules worse.
package schedule

import (
	"context"
	"fmt"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// Mode selects the search effort.
type Mode int

const (
	// DP is bounded-lookahead dynamic programming over priority-pruned
	// options (the paper's Algorithm 2).
	DP Mode = iota
	// Greedy applies the priority rules with no lookahead.
	Greedy
)

// Options configures the scheduler.
type Options struct {
	Engines    int             // N, number of tensor engines (required)
	Mode       Mode            // search mode (default DP)
	Lookahead  int             // DP recursion depth in Rounds (default 3)
	MaxOptions int             // option fan-out per Round (default 4)
	EngineCfg  engine.Config   // engine pricing the atoms (required)
	Dataflow   engine.Dataflow // dataflow pricing the atoms

	// Oracle prices the atoms (default: the engine model directly). Pass
	// the run's shared instrumented oracle to count scheduling's
	// evaluations with the rest of the run's.
	Oracle cost.Oracle

	// Ctx, when non-nil, lets callers abandon the search: Build polls it
	// between Rounds and returns the context's error once cancelled. An
	// uncancelled context never changes the schedule produced.
	Ctx context.Context
}

func (o Options) lookahead() int {
	if o.Lookahead <= 0 {
		return 3
	}
	return o.Lookahead
}

func (o Options) maxOptions() int {
	if o.MaxOptions <= 0 {
		return 4
	}
	return o.MaxOptions
}

// Round is one synchronized step: the chosen atoms run on distinct engines
// and the Round ends when the slowest finishes.
type Round struct {
	Atoms []int // atom IDs, at most Options.Engines of them
}

// Schedule is the ordered Round list plus lookup tables used by the
// mapping, buffering and simulation stages.
type Schedule struct {
	Rounds    []Round
	AtomRound []int // atom ID -> round index (-1 for virtual input atoms)

	// ComputeCycles caches each atom's engine cycles under the scheduling
	// engine config/dataflow; MACs each atom's useful MAC count. Both are
	// priced once here, so the simulator's timing stage reads them instead
	// of asking the cost oracle per atom.
	ComputeCycles []int64
	MACs          []int64
}

// NumRounds returns the schedule length.
func (s *Schedule) NumRounds() int { return len(s.Rounds) }

// MakespanLB returns Σ_t max cycles in Round t — the compute-only lower
// bound on execution time that the scheduler optimizes.
func (s *Schedule) MakespanLB() int64 {
	var total int64
	for _, r := range s.Rounds {
		var worst int64
		for _, id := range r.Atoms {
			if c := s.ComputeCycles[id]; c > worst {
				worst = c
			}
		}
		total += worst
	}
	return total
}

// Build schedules the atomic DAG.
func Build(d *atom.DAG, opt Options) (*Schedule, error) {
	if opt.Engines <= 0 {
		return nil, fmt.Errorf("schedule: Engines = %d", opt.Engines)
	}
	if err := opt.EngineCfg.Validate(); err != nil {
		return nil, err
	}
	st := newState(d, opt)
	sched := &Schedule{
		AtomRound:     make([]int, d.NumAtoms()),
		ComputeCycles: st.cycles,
		MACs:          st.macs,
	}
	for i := range sched.AtomRound {
		sched.AtomRound[i] = -1
	}
	for st.remaining > 0 {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("schedule: %w", err)
			}
		}
		var comb []int
		if opt.Mode == Greedy {
			comb = st.greedyPick()
		} else {
			comb = st.dpPick()
		}
		if len(comb) == 0 {
			return nil, fmt.Errorf("schedule: deadlock with %d atoms remaining", st.remaining)
		}
		t := len(sched.Rounds)
		for _, id := range comb {
			sched.AtomRound[id] = t
		}
		sched.Rounds = append(sched.Rounds, Round{Atoms: comb})
		st.apply(comb)
		st.commit()
	}
	return sched, nil
}

// state is the mutable scheduling frontier. Each (sample, layer) pair is
// indexed densely as sample·L + layer, L being the graph's layer count.
type state struct {
	d   *atom.DAG
	g   *graph.Graph
	opt Options

	cycles    []int64 // per-atom engine cycles
	macs      []int64 // per-atom MACs (for the Schedule only)
	indeg     []int
	scheduled []bool
	remaining int

	// ready holds each pair's ready atoms sorted by ID; readyPairs lists
	// the pairs whose ready list is non-empty (in no particular order) and
	// readyAt is each listed pair's index in it.
	ready      [][]int
	readyPairs []int
	readyAt    []int

	pairOf   []int // atom ID -> pair
	layers   int   // L
	layerPos []int // layer ID -> topological position, for deterministic ordering

	// traversed marks pairs with at least one scheduled atom; pending
	// counts unscheduled atoms per pair.
	traversed []bool
	pending   []int

	// activeDepth counts, per sample·depths + depth, the traversed-but-
	// unfinished pairs at that depth — the rule-2 reference set,
	// maintained incrementally by apply/rollback so pickWithPolicy (called
	// ~MaxOptions·Lookahead times per Round by the DP) reads it in O(1)
	// instead of walking every traversed pair.
	activeDepth []int
	depths      int // max layer depth + 1

	curSample   int
	samplesLeft []int // unscheduled atom count per sample

	totalWork int64 // Σ cycles of unscheduled atoms
	undoLog   []undo

	// DP lookahead trees (see dpPick): trees[cur] is the current Round's,
	// the other the previous Round's; carry is the node of trees[cur]
	// holding the frontier after the picked combination, -1 when none.
	trees [2][]optNode
	cur   int
	carry int32

	// Scratch of pickWithPolicy, options and mergeReady; none re-enters
	// itself while its buffer is in use, so one buffer each suffices.
	cands  []candidateLayer
	top    []int
	sorted [][]int
	runBuf []int
}

type undo struct {
	comb        []int
	readyAdded  []int // atom IDs that became ready during this apply
	newTravKeys []int // pairs first traversed during this apply
	prevSample  int
	workDelta   int64
}

// depthKey returns the activeDepth index of pair p.
func (st *state) depthKey(p int) int {
	return p/st.layers*st.depths + st.g.Layer(p%st.layers).Depth
}

// pairActive reports whether a pair belongs to the rule-2 reference set:
// traversed with unscheduled atoms left.
func (st *state) pairActive(p int) bool {
	return st.traversed[p] && st.pending[p] > 0
}

// adjustActive reconciles the activeDepth counter after a pair's
// (traversed, pending) transition observed as was → is.
func (st *state) adjustActive(p int, was, is bool) {
	if was == is {
		return
	}
	if is {
		st.activeDepth[st.depthKey(p)]++
	} else {
		st.activeDepth[st.depthKey(p)]--
	}
}

func newState(d *atom.DAG, opt Options) *state {
	layers := d.Graph.NumLayers()
	depths := 0
	for _, l := range d.Graph.Layers {
		depths = max(depths, l.Depth+1)
	}
	pairs := d.Batch * layers
	st := &state{
		d:           d,
		g:           d.Graph,
		opt:         opt,
		indeg:       make([]int, d.NumAtoms()),
		pairOf:      make([]int, d.NumAtoms()),
		scheduled:   make([]bool, d.NumAtoms()),
		ready:       make([][]int, pairs),
		readyAt:     make([]int, pairs),
		layers:      layers,
		layerPos:    make([]int, layers),
		traversed:   make([]bool, pairs),
		pending:     make([]int, pairs),
		activeDepth: make([]int, d.Batch*depths),
		depths:      depths,
		carry:       -1,
	}
	for i, lid := range d.Graph.Topo() {
		st.layerPos[lid] = i
	}
	st.samplesLeft = make([]int, d.Batch)
	st.cycles, st.macs = priceAtoms(d, opt)
	for _, a := range d.Atoms {
		st.indeg[a.ID] = len(a.Deps)
		st.pairOf[a.ID] = a.Sample*layers + a.Layer
	}
	// Virtual atoms (graph inputs) complete immediately: they model data
	// already resident in DRAM, not engine work.
	completedVirtual := make([]int, 0)
	for _, a := range d.Atoms {
		if a.Task.Kind == graph.OpInput {
			st.scheduled[a.ID] = true
			completedVirtual = append(completedVirtual, a.ID)
			continue
		}
		st.remaining++
		st.samplesLeft[a.Sample]++
		st.pending[st.pairOf[a.ID]]++
		st.totalWork += st.cycles[a.ID]
	}
	for _, a := range d.Atoms {
		if st.scheduled[a.ID] || st.indeg[a.ID] > 0 {
			continue
		}
		// Ready unless it waits on a virtual dep (handled below).
		st.pushReady(a.ID)
	}
	for _, id := range completedVirtual {
		for _, c := range d.Consumers(id) {
			st.indeg[c]--
			if st.indeg[c] == 0 && !st.scheduled[c] {
				st.pushReady(c)
			}
		}
	}
	return st
}

// priceAtoms returns every atom's engine cycles and MACs under the
// scheduling engine config and dataflow.
func priceAtoms(d *atom.DAG, opt Options) (cycles, macs []int64) {
	orc := cost.Or(opt.Oracle)
	cycles, macs = make([]int64, d.NumAtoms()), make([]int64, d.NumAtoms())
	for _, a := range d.Atoms {
		c := orc.Evaluate(opt.EngineCfg, opt.Dataflow, a.Task)
		cycles[a.ID], macs[a.ID] = c.Cycles, c.MACs
	}
	return cycles, macs
}

// setReady installs lst as pair p's ready list, keeping readyPairs — the
// pairs with a non-empty list — in step: a pair joins at the end and
// leaves by swap-remove.
func (st *state) setReady(p int, lst []int) {
	was := len(st.ready[p]) > 0
	st.ready[p] = lst
	switch {
	case !was && len(lst) > 0:
		st.readyAt[p] = len(st.readyPairs)
		st.readyPairs = append(st.readyPairs, p)
	case was && len(lst) == 0:
		at, last := st.readyAt[p], st.readyPairs[len(st.readyPairs)-1]
		st.readyPairs[at] = last
		st.readyAt[last] = at
		st.readyPairs = st.readyPairs[:len(st.readyPairs)-1]
	}
}

// pushReady inserts id into its pair's sorted ready list.
func (st *state) pushReady(id int) {
	p := st.pairOf[id]
	lst := st.ready[p]
	i, _ := slices.BinarySearch(lst, id)
	st.setReady(p, slices.Insert(lst, i, id))
}

// dropReady removes id from its pair's sorted ready list.
func (st *state) dropReady(id int) {
	p := st.pairOf[id]
	lst := st.ready[p]
	if i, ok := slices.BinarySearch(lst, id); ok {
		st.setReady(p, slices.Delete(lst, i, i+1))
	}
}

// mergeReady merges run, atoms of pair p, back into the pair's sorted
// ready list in one pass.
func (st *state) mergeReady(p int, run []int) {
	if !slices.IsSorted(run) { // a longestFirst pick; comb itself stays as picked
		run = append(st.runBuf[:0], run...)
		slices.Sort(run)
		st.runBuf = run
	}
	old := st.ready[p]
	n, k := len(old), len(run)
	lst := slices.Grow(old, k)[:n+k]
	// Merge from the back, so no element is overwritten before it moves.
	for i, j, w := n-1, k-1, n+k-1; j >= 0; w-- {
		if i >= 0 && lst[i] > run[j] {
			lst[w] = lst[i]
			i--
		} else {
			lst[w] = run[j]
			j--
		}
	}
	st.setReady(p, lst)
}

// runEnd returns the end of the run of consecutive comb atoms that share
// comb[i]'s pair. pickWithPolicy takes a pair's atoms together, so a run
// is normally all of a combination's atoms in that pair.
func (st *state) runEnd(comb []int, i int) int {
	p, j := st.pairOf[comb[i]], i+1
	for j < len(comb) && st.pairOf[comb[j]] == p {
		j++
	}
	return j
}

// apply schedules a combination, updating the frontier, and records an
// undo entry for lookahead rollback. The entry's slices are reused from
// earlier, already rolled-back entries at the same depth.
func (st *state) apply(comb []int) {
	if n := len(st.undoLog); n < cap(st.undoLog) {
		st.undoLog = st.undoLog[:n+1]
	} else {
		st.undoLog = append(st.undoLog, undo{})
	}
	u := &st.undoLog[len(st.undoLog)-1]
	u.comb, u.prevSample, u.workDelta = comb, st.curSample, 0
	u.readyAdded, u.newTravKeys = u.readyAdded[:0], u.newTravKeys[:0]
	for i := 0; i < len(comb); {
		j := st.runEnd(comb, i)
		run, p := comb[i:j], st.pairOf[comb[i]]
		wasActive := st.pairActive(p)
		for _, id := range run {
			st.scheduled[id] = true
			u.workDelta += st.cycles[id]
		}
		st.remaining -= len(run)
		st.samplesLeft[p/st.layers] -= len(run)
		st.pending[p] -= len(run)
		// Ready lists hold only unscheduled atoms, so this drops exactly
		// the run, in one pass over the list.
		st.setReady(p, slices.DeleteFunc(st.ready[p], func(id int) bool { return st.scheduled[id] }))
		if !st.traversed[p] {
			st.traversed[p] = true
			u.newTravKeys = append(u.newTravKeys, p)
		}
		st.adjustActive(p, wasActive, st.pairActive(p))
		for _, id := range run {
			for _, c := range st.d.Consumers(id) {
				st.indeg[c]--
				if st.indeg[c] == 0 && !st.scheduled[c] {
					st.pushReady(c)
					u.readyAdded = append(u.readyAdded, c)
				}
			}
		}
		i = j
	}
	st.totalWork -= u.workDelta
	for st.curSample < st.d.Batch && st.samplesLeft[st.curSample] == 0 {
		st.curSample++
	}
}

// commit forgets the undo entries of the applied Rounds: they are final.
func (st *state) commit() { st.undoLog = st.undoLog[:0] }

// rollback undoes the most recent apply.
func (st *state) rollback() {
	u := &st.undoLog[len(st.undoLog)-1]
	st.undoLog = st.undoLog[:len(st.undoLog)-1]
	for _, id := range u.readyAdded {
		st.dropReady(id)
	}
	for i := 0; i < len(u.comb); {
		j := st.runEnd(u.comb, i)
		run, p := u.comb[i:j], st.pairOf[u.comb[i]]
		wasActive := st.pairActive(p)
		for _, id := range run {
			st.scheduled[id] = false
			for _, c := range st.d.Consumers(id) {
				st.indeg[c]++
			}
		}
		st.remaining += len(run)
		st.samplesLeft[p/st.layers] += len(run)
		st.pending[p] += len(run)
		st.adjustActive(p, wasActive, st.pairActive(p))
		st.mergeReady(p, run)
		i = j
	}
	for _, p := range u.newTravKeys {
		wasActive := st.pairActive(p)
		st.traversed[p] = false
		st.adjustActive(p, wasActive, false)
	}
	st.totalWork += u.workDelta
	st.curSample = u.prevSample
}
