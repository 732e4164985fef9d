package sim

import (
	"fmt"
	"slices"
	"sync"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// The simulator's Round loop is two dependency chains glued together:
//
//	prep(t):  placement (mapper) + buffer replay (manager), which
//	          emits the Round's multicast groups — depends only on
//	          prep(t-1), because the buffer state a placement reads is
//	          exactly the state ExecuteRoundInto(t-1) committed.
//	time(t):  DRAM queueing, the group order and NoC walk, the compute
//	          barrier and all accounting — depends on prep(t) and
//	          time(t-1) (the HBM channel clocks and `now`), never on
//	          prep(t+1).
//
// So prep may run ahead of time on its own goroutine: a bounded ring of
// prepSlots carries each Round's placement and IO from the prep stage to
// the timing stage, and because each stage remains internally sequential
// the interleaving cannot change a single value either stage computes —
// the pipelined Report is bit-identical to running prep and time back to
// back by construction (pinned against the tests' serial reference loop
// by TestSimPipelineParity, and by the zoo digest matrix).
//
// Each atom runs in exactly one Round, so the slots' placements share the
// mapper's one atom-to-engine table: prep writes the entries of the Round
// it places, timing reads those of the Round it times, and the two sets
// are disjoint. A slot therefore costs Round-sized memory, not DAG-sized,
// which is what lets the ring be deep (pipelineDepth).

// pipelineDepth is the prep-slot ring size: how many Rounds prep may run
// ahead of timing. A deeper ring lets prep bank the Rounds it finishes
// early against the ones it finishes late. DESIGN §13 has the depth
// sweep and the pairs of 8 against 16 slots behind this value.
const pipelineDepth = 16

// prepSlot carries one prepared Round from the prep stage to the timing
// stage. Slots are recycled through the ring, and the ring lives in the
// pooled runState, so their RoundIO, engine list and placed-atom list
// stop allocating after the first few Rounds of the first Run. Their
// placements share the mapper's atom-to-engine table.
type prepSlot struct {
	t       int
	placed  mapping.Result
	io      buffer.RoundIO
	engines []int // engines of the Round's atoms, sorted (DRAM issue order)
	err     error
}

// runner is one sim.Run in flight: the hardware models plus the timing
// stage's running accumulators. The prep stage touches only man and
// mapper; the timing stage touches everything else — the disjointness is
// what legalizes the pipeline.
type runner struct {
	cfg    Config
	d      *atom.DAG
	s      *schedule.Schedule
	n      int
	man    *buffer.Manager
	mapper *mapping.Mapper
	hbm    *dram.HBM
	ar     *arena
	slots  *[pipelineDepth]prepSlot
	sm     *simMetrics

	rep          Report
	totalInputs  int64
	onChipInputs int64
	now          int64 // current time (Round start)
	prevStart    int64
}

// pollCtx returns the configured context's error, if any.
func (r *runner) pollCtx() error {
	if r.cfg.Ctx != nil {
		if err := r.cfg.Ctx.Err(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// prep runs the pipeline's first stage for Round t into slot: placement,
// buffer replay and the sorted engine list. Only the mapper, the buffer
// manager and the slot are touched.
func (r *runner) prep(t int, slot *prepSlot) {
	slot.t = t
	round := r.s.Rounds[t]
	if r.cfg.NaiveMapping {
		r.mapper.PlaceRound(&slot.placed, round.Atoms, func(int) int { return -1 }, nil)
	} else {
		r.mapper.PlaceRound(&slot.placed, round.Atoms, r.man.Locate, r.man.HasWeights)
	}
	if slot.err = r.man.ExecuteRoundInto(t, &slot.placed, &slot.io); slot.err != nil {
		return
	}
	engines := slot.engines[:0]
	for _, id := range round.Atoms {
		engines = append(engines, slot.placed.Engine(id))
	}
	slices.Sort(engines)
	slot.engines = engines
}

// time runs the pipeline's second stage on a prepared Round: DRAM reads,
// the group order and NoC walk, the compute barrier, write-backs, metrics
// and accounting.
func (r *runner) time(slot *prepSlot) {
	t := slot.t
	round := r.s.Rounds[t]
	cfg := &r.cfg
	s := r.s
	ar := r.ar
	io := &slot.io
	placed := &slot.placed
	engines := slot.engines
	now := r.now

	// --- DRAM reads: one aggregate request per engine. With double
	// buffering the request is issued at the previous Round's start
	// (prefetch); data is usable no earlier than this Round's start.
	ar.beginRound()
	issueAt := now
	if cfg.DoubleBuffer {
		issueAt = r.prevStart
	}
	for _, e := range engines {
		if b := io.DRAMReadBytes[e]; b > 0 {
			ar.dramReady[e] = max(r.hbm.Read(issueAt, b), now)
		}
	}

	// --- NoC: link-level serialization along XY routes, each tensor's
	// transfers delivered as one multicast tree.
	roundByteHops, claims := ar.walkGroups(io, ar.orderGroups(io.Groups), now)

	// --- Compute: engines stream inputs concurrently with execution
	// (tile-level double buffering), so an engine finishes when both
	// its compute time has elapsed and its last input byte has
	// arrived — the Round is bounded by the slower of computation and
	// data delivery rather than their sum.
	var endAll, endNoNoC, maxComp int64
	for _, id := range round.Atoms {
		e := placed.Engine(id)
		comp := s.ComputeCycles[id]
		maxComp = max(maxComp, comp)
		end := max(now+comp, ar.dramReady[e])
		endNoNoC = max(endNoNoC, end)
		endAll = max(endAll, end, ar.ready[e])
	}
	endNoMem := now + maxComp
	endNoNoC = max(endNoNoC, endNoMem)
	endAll = max(endAll, endNoNoC)

	// --- Write-backs post at Round end without blocking it.
	for _, e := range engines {
		if b := io.DRAMWriteBytes[e]; b > 0 {
			r.hbm.Write(endAll, b)
		}
	}

	// --- Metrics (one branch when disabled). The barrier-wait pass
	// recomputes each atom's finish time against the Round barrier;
	// busy/idle split the Round span per engine.
	if sm := r.sm; sm != nil {
		span := endAll - now
		sm.observeRound(span, endAll-endNoNoC, endNoNoC-endNoMem,
			placed.Perms, placed.ByteHops, io.FlowCount, len(io.Groups), claims)
		for _, id := range round.Atoms {
			e := placed.Engine(id)
			comp := s.ComputeCycles[id]
			end := max(now+comp, ar.dramReady[e], ar.ready[e])
			sm.barrierWait.ObserveInt(endAll - end)
			sm.busy[e].Add(comp)
			sm.compOf[e] = comp
		}
		for e := 0; e < r.n; e++ {
			sm.idle[e].Add(span - sm.compOf[e])
			sm.compOf[e] = 0
		}
	}

	// --- Accounting.
	rep := &r.rep
	rep.ComputeCycles += maxComp
	rep.NoCBlockedCycles += endAll - endNoNoC
	rep.DRAMBlockedCycles += endNoNoC - endNoMem
	for _, id := range round.Atoms {
		rep.MACs += s.MACs[id]
	}
	rep.NoCByteHops += roundByteHops
	rep.Energy.AddNoC(cfg.Energy, roundByteHops)
	var sramR, sramW int64
	for e := 0; e < r.n; e++ {
		sramR += io.SRAMReadBytes[e]
		sramW += io.SRAMWriteBytes[e]
	}
	rep.Energy.AddSRAM(cfg.Energy, sramR, sramW)
	rep.DRAMReadBytes += sumSlice(io.DRAMReadBytes)
	rep.DRAMWriteBytes += sumSlice(io.DRAMWriteBytes)
	r.totalInputs += io.InputBytesTotal
	r.onChipInputs += io.InputBytesOnChip

	if cfg.Trace != nil {
		tr := RoundTrace{
			Round: t, Start: now, End: endAll, ComputeEnd: endNoMem,
			Flows:     io.FlowCount,
			DRAMRead:  sumSlice(io.DRAMReadBytes),
			DRAMWrite: sumSlice(io.DRAMWriteBytes),
			DRAMEnd:   endNoNoC,
			DRAMIssue: issueAt,
			DRAMReady: now,
			FlowBytes: io.FlowBytes,
		}
		for _, e := range engines {
			tr.DRAMReady = max(tr.DRAMReady, ar.dramReady[e])
		}
		for _, id := range round.Atoms {
			a := &r.d.Atoms[id]
			tr.Atoms = append(tr.Atoms, AtomTrace{
				Atom: id, Layer: a.Layer, Sample: a.Sample,
				Engine: placed.Engine(id), Cycles: s.ComputeCycles[id],
			})
		}
		cfg.Trace(tr)
	}

	r.prevStart = now
	r.now = endAll
}

// runPipelined overlaps prep(t+1) with time(t). One goroutine runs the
// prep chain in Round order, feeding prepared slots through a bounded
// ring; the calling goroutine times them in the same order. Cancellation
// (ctx or a replay error) closes stop, which unblocks the prep goroutine
// from either channel operation; the deferred drain then waits for it to
// exit, so Run never leaks the goroutine.
func (r *runner) runPipelined() error {
	free := make(chan *prepSlot, pipelineDepth)
	ready := make(chan *prepSlot, pipelineDepth)
	for i := range r.slots {
		free <- &r.slots[i]
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	go func() {
		defer close(ready)
		for t := range r.s.Rounds {
			var slot *prepSlot
			select {
			case slot = <-free:
			case <-stop:
				return
			default:
				// Prep is a full ring ahead of timing: account the
				// bubble, then block.
				if r.sm != nil {
					r.sm.pipelineFull.Inc()
				}
				select {
				case slot = <-free:
				case <-stop:
					return
				}
			}
			r.prep(t, slot)
			bad := slot.err != nil
			select {
			case ready <- slot:
			case <-stop:
				return
			}
			if bad {
				return
			}
		}
	}()
	defer func() {
		halt()
		for range ready { // wait for the prep goroutine to exit
		}
	}()

	for range r.s.Rounds {
		if err := r.pollCtx(); err != nil {
			return err
		}
		var slot *prepSlot
		select {
		case slot = <-ready:
		default:
			// Timing is ahead of prep: account the bubble, then block.
			if r.sm != nil {
				r.sm.pipelineStalls.Inc()
			}
			slot = <-ready
		}
		if slot == nil {
			return fmt.Errorf("sim: pipeline stopped unexpectedly")
		}
		if slot.err != nil {
			return slot.err
		}
		r.time(slot)
		free <- slot // never blocks: the ring holds at most pipelineDepth slots
	}
	return nil
}

// runState is the pooled per-mesh-shape state of a sim.Run: the buffer
// manager, the mapper, the timing arena and the prep-slot ring. All have
// O(atoms), O(links) or O(groups per Round) footprints and cheap Reset
// paths, so serve requests and sweep iterations reuse them instead of
// reallocating (counted by sim_pool_reuse_total). A slot's contents are
// rewritten by prep before the timing stage reads them, so the ring
// needs no reset.
type runState struct {
	man    *buffer.Manager
	mapper *mapping.Mapper
	ar     *arena
	slots  [pipelineDepth]prepSlot
}

// poolKey keys the state pools by what fixes the pooled slices' sizes:
// engine count and directed link count. Two meshes agreeing on both can
// swap states after a Reset (which re-derives zig-zag order and routes
// from the actual mesh).
type poolKey struct {
	engines int
	links   int
}

var statePools sync.Map // poolKey -> *sync.Pool of *runState

func statePool(k poolKey) *sync.Pool {
	if p, ok := statePools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := statePools.LoadOrStore(k, &sync.Pool{})
	return p.(*sync.Pool)
}

// acquireState pops a pooled runState for the mesh shape and resets it
// for this DAG/schedule/config, or builds a fresh one. The second result
// reports whether a pooled state was reused.
func acquireState(cfg Config, d *atom.DAG, s *schedule.Schedule) (*runState, bool, error) {
	k := poolKey{engines: cfg.Mesh.Engines(), links: cfg.Mesh.NumLinks()}
	if v := statePool(k).Get(); v != nil {
		st := v.(*runState)
		if err := st.man.Reset(d, s, k.engines, int64(cfg.Engine.BufferBytes)); err != nil {
			return nil, false, err
		}
		st.mapper.Reset(cfg.Mesh, d)
		st.ar.reset(cfg.Mesh)
		return st, true, nil
	}
	man, err := buffer.New(d, s, k.engines, int64(cfg.Engine.BufferBytes))
	if err != nil {
		return nil, false, err
	}
	st := &runState{
		man:    man,
		mapper: mapping.New(cfg.Mesh, d),
		ar:     newArena(cfg.Mesh),
	}
	return st, false, nil
}

// releaseState returns st to its mesh-shape pool. The arena's metrics
// hook is detached first so a pooled state never writes into a finished
// run's registry.
func releaseState(mesh *noc.Mesh, st *runState) {
	st.ar.linkTraffic = nil
	statePool(poolKey{engines: mesh.Engines(), links: mesh.NumLinks()}).Put(st)
}
