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
// four alternatives per Round with Lookahead rounds of recursion and
// subsumes the greedy choice, so it never schedules worse.
package schedule

import (
	"context"
	"fmt"
	"math/bits"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
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

// MarshalText returns the mode's spelling in the knob table, dp or greedy.
func (m Mode) MarshalText() ([]byte, error) { return knob.Mode.Text(int(m)) }

// UnmarshalText parses a spelling of the knob table. encoding/json and
// flag.TextVar both read a mode through it.
func (m *Mode) UnmarshalText(b []byte) error { return knob.Mode.Parse(b, (*int)(m)) }

// Options configures the scheduler.
type Options struct {
	Engines   int             // N, number of tensor engines (required)
	Mode      Mode            // search mode (default DP)
	Lookahead int             // DP recursion depth in Rounds (default 3)
	EngineCfg engine.Config   // engine pricing the atoms (required)
	Dataflow  engine.Dataflow // dataflow pricing the atoms

	// Oracle prices the atoms (default: the engine model directly). Pass
	// the run's shared instrumented oracle to count scheduling's
	// evaluations with the rest of the run's.
	Oracle cost.Oracle

	// Ctx, when non-nil, lets callers abandon the search: Build polls it
	// between Rounds and returns the context's error once cancelled. An
	// uncancelled context never changes the schedule produced.
	Ctx context.Context

	fanout int // DP option fan-out per Round (default 4); set only by tests
}

func (o Options) lookahead() int {
	if o.Lookahead <= 0 {
		return 3
	}
	return o.Lookahead
}

func (o Options) maxOptions() int {
	if o.fanout <= 0 {
		return 4
	}
	return o.fanout
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
	s, _, err := build(d, opt)
	return s, err
}

// build is Build returning its final state too, whose work counters the
// tests read.
func build(d *atom.DAG, opt Options) (*Schedule, *state, error) {
	if opt.Engines <= 0 {
		return nil, nil, fmt.Errorf("schedule: Engines = %d", opt.Engines)
	}
	if err := opt.EngineCfg.Validate(); err != nil {
		return nil, nil, err
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
	// Every Round's atoms are copied into one array, sized to the atoms to
	// schedule, so the picks' own buffers are free to be reused.
	atoms := make([]int, 0, st.remaining)
	for st.remaining > 0 {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("schedule: %w", err)
			}
		}
		start := len(atoms)
		if opt.Mode == Greedy {
			atoms = st.greedyPick(atoms)
		} else {
			atoms = append(atoms, st.dpPick()...)
		}
		comb := atoms[start:len(atoms):len(atoms)]
		if len(comb) == 0 {
			return nil, nil, fmt.Errorf("schedule: deadlock with %d atoms remaining", st.remaining)
		}
		t := len(sched.Rounds)
		for _, id := range comb {
			sched.AtomRound[id] = t
		}
		sched.Rounds = append(sched.Rounds, Round{Atoms: comb})
		st.apply(comb)
		st.commit()
	}
	return sched, st, nil
}

// state is the mutable scheduling frontier. Each (sample, layer) pair is
// indexed densely as sample·L + layer, L being the graph's layer count.
type state struct {
	d   *atom.DAG
	g   *graph.Graph
	opt Options

	cycles    []int64 // per-atom engine cycles
	macs      []int64 // per-atom MACs (for the Schedule only)
	indeg     []int32 // per DAG row: producers of the row not yet scheduled
	scheduled []bool
	remaining int

	// ready is the ready set, one bit per atom ID: set when the atom is
	// unscheduled and every producer of it is scheduled. A pair's atoms
	// are one contiguous ID range starting at pairLo[p], so its ready
	// atoms are the set bits there, read in ID order; nready counts them.
	// readyPairs lists the pairs with a ready atom (in no particular
	// order) and readyAt is each listed pair's index in it.
	ready      []uint64
	nready     []int
	pairLo     []int
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
	// ~fanout·Lookahead times per Round by the DP) reads it in O(1)
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
	// slabs[i] holds the option lists of trees[i]'s nodes and is reset
	// with it.
	trees [2][]optNode
	slabs [2]slab
	cur   int
	carry int32

	// The frontier's candidate layers in (rule, sample, topological
	// position) order, rule r's run being cands[ruleAt[r-1]:ruleAt[r]];
	// see rankCandidates. lst and top are longest's scratch.
	cands    []candidateLayer
	ruleAt   [5]int
	lst, top []int

	// optMask[id] has bit j set while atom id is in the j-th option kept
	// by the running options() call; it is all zero between calls.
	optMask []uint8

	// Work counts of one Build: option lists computed by options(), option
	// lists read back from the previous Round's tree, and apply calls.
	optLists, optReads, applies int
}

type undo struct {
	comb        []int
	readyRows   []int // rows whose atoms became ready during this apply
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
		indeg:       make([]int32, d.NumRows()),
		pairOf:      make([]int, d.NumAtoms()),
		scheduled:   make([]bool, d.NumAtoms()),
		ready:       make([]uint64, (d.NumAtoms()+63)/64),
		nready:      make([]int, pairs),
		pairLo:      make([]int, pairs),
		readyAt:     make([]int, pairs),
		layers:      layers,
		layerPos:    make([]int, layers),
		traversed:   make([]bool, pairs),
		pending:     make([]int, pairs),
		activeDepth: make([]int, d.Batch*depths),
		depths:      depths,
		carry:       -1,
		optMask:     make([]uint8, d.NumAtoms()),
	}
	for i, lid := range d.Graph.Topo() {
		st.layerPos[lid] = i
	}
	st.samplesLeft = make([]int, d.Batch)
	st.cycles, st.macs = priceAtoms(d, opt)
	// Virtual atoms (graph inputs) complete immediately: they model data
	// already resident in DRAM, not engine work.
	completedVirtual := make([]int, 0)
	for id := range d.Atoms {
		a := &d.Atoms[id]
		st.pairOf[id] = a.Sample*layers + a.Layer
		if a.Task.Kind == graph.OpInput {
			st.scheduled[id] = true
			completedVirtual = append(completedVirtual, id)
			continue
		}
		st.remaining++
		st.samplesLeft[a.Sample]++
		st.pending[st.pairOf[id]]++
		st.totalWork += st.cycles[id]
	}
	for id := len(d.Atoms) - 1; id >= 0; id-- {
		st.pairLo[st.pairOf[id]] = id
	}
	for r := range st.indeg {
		lo, hi := d.RowAtoms(r)
		ids, _, _ := d.Deps(lo)
		st.indeg[r] = int32(len(ids))
		// Ready unless it waits on a dep; virtual deps are released below.
		if len(ids) == 0 && !st.scheduled[lo] {
			st.pushRow(lo, hi)
		}
	}
	for _, id := range completedVirtual {
		st.release(id, nil)
	}
	return st
}

// release counts scheduled atom id off its consumer rows and pushes the
// atoms of every row left with no unscheduled producer, recording the row
// in u when non-nil. A row's atoms share their deps, so they become ready
// together, and in the order per-atom in-degrees would make them.
func (st *state) release(id int, u *undo) {
	rows, off := st.d.ConsumerRows(id)
	for _, r := range rows {
		r += off
		if st.indeg[r]--; st.indeg[r] > 0 {
			continue
		}
		st.pushRow(st.d.RowAtoms(int(r)))
		if u != nil {
			u.readyRows = append(u.readyRows, int(r))
		}
	}
}

// priceAtoms returns every atom's engine cycles and MACs under the
// scheduling engine config and dataflow.
func priceAtoms(d *atom.DAG, opt Options) (cycles, macs []int64) {
	orc := cost.Or(opt.Oracle)
	n, b := d.NumAtoms(), d.BlockAtoms()
	cycles, macs = make([]int64, n), make([]int64, n)
	// Replicas repeat block 0's Tasks: price block 0 and copy its prices.
	for id := 0; id < b; id++ {
		c := orc.Evaluate(opt.EngineCfg, opt.Dataflow, d.Atoms[id].Task)
		cycles[id], macs[id] = c.Cycles, c.MACs
	}
	for off := b; off < n; off += b {
		copy(cycles[off:off+b], cycles[:b])
		copy(macs[off:off+b], macs[:b])
	}
	return cycles, macs
}

// addReady counts k more ready atoms (fewer for k < 0) in pair p,
// keeping readyPairs — the pairs with a ready atom — in step: a pair
// joins at the end and leaves by swap-remove.
func (st *state) addReady(p, k int) {
	was := st.nready[p] > 0
	st.nready[p] += k
	is := st.nready[p] > 0
	switch {
	case !was && is:
		st.readyAt[p] = len(st.readyPairs)
		st.readyPairs = append(st.readyPairs, p)
	case was && !is:
		at, last := st.readyAt[p], st.readyPairs[len(st.readyPairs)-1]
		st.readyPairs[at] = last
		st.readyAt[last] = at
		st.readyPairs = st.readyPairs[:len(st.readyPairs)-1]
	}
}

// setBits sets (on) or clears the ready bits of the IDs [lo, hi).
func (st *state) setBits(lo, hi int, on bool) {
	for lo < hi {
		w, b := lo>>6, lo&63
		n := min(hi-lo, 64-b)
		mask := (^uint64(0) >> (64 - n)) << b
		if on {
			st.ready[w] |= mask
		} else {
			st.ready[w] &^= mask
		}
		lo += n
	}
}

// pushRow adds the atoms [lo, hi) of one row to the ready set. No atom of
// a row waiting on a producer can have been scheduled, so none of them is
// there yet and all of them go in.
func (st *state) pushRow(lo, hi int) {
	st.setBits(lo, hi, true)
	st.addReady(st.pairOf[lo], hi-lo)
}

// dropRow removes the atoms [lo, hi) of one row, all ready, from the
// ready set.
func (st *state) dropRow(lo, hi int) {
	st.setBits(lo, hi, false)
	st.addReady(st.pairOf[lo], lo-hi)
}

// appendReady appends the first k ready atoms of pair p, in ID order, to
// dst; k must not exceed nready[p]. The pair's atoms are contiguous and
// the walk stops at its k-th ready atom, so only the bits below the
// pair's first atom need masking.
func (st *state) appendReady(dst []int, p, k int) []int {
	lo := st.pairLo[p]
	for w := lo >> 6; k > 0; w++ {
		word := st.ready[w]
		if w == lo>>6 {
			word &= ^uint64(0) << (lo & 63)
		}
		for ; word != 0 && k > 0; k-- {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
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
	st.applies++
	u := &st.undoLog[len(st.undoLog)-1]
	u.comb, u.prevSample, u.workDelta = comb, st.curSample, 0
	u.readyRows, u.newTravKeys = u.readyRows[:0], u.newTravKeys[:0]
	for i := 0; i < len(comb); {
		j := st.runEnd(comb, i)
		run, p := comb[i:j], st.pairOf[comb[i]]
		wasActive := st.pairActive(p)
		for _, id := range run {
			st.scheduled[id] = true
			st.ready[id>>6] &^= 1 << (id & 63)
			u.workDelta += st.cycles[id]
		}
		st.addReady(p, -len(run))
		st.remaining -= len(run)
		st.samplesLeft[p/st.layers] -= len(run)
		st.pending[p] -= len(run)
		if !st.traversed[p] {
			st.traversed[p] = true
			u.newTravKeys = append(u.newTravKeys, p)
		}
		st.adjustActive(p, wasActive, st.pairActive(p))
		for _, id := range run {
			st.release(id, u)
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
	for _, r := range u.readyRows {
		st.dropRow(st.d.RowAtoms(r))
	}
	for i := 0; i < len(u.comb); {
		j := st.runEnd(u.comb, i)
		run, p := u.comb[i:j], st.pairOf[u.comb[i]]
		wasActive := st.pairActive(p)
		for _, id := range run {
			st.scheduled[id] = false
			st.ready[id>>6] |= 1 << (id & 63)
			rows, off := st.d.ConsumerRows(id)
			for _, r := range rows {
				st.indeg[r+off]++
			}
		}
		st.remaining += len(run)
		st.samplesLeft[p/st.layers] += len(run)
		st.pending[p] += len(run)
		st.adjustActive(p, wasActive, st.pairActive(p))
		st.addReady(p, len(run))
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
