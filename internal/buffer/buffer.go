// Package buffer implements the paper's distributed on-chip buffering
// strategy (Sec. IV-C, Algorithm 3). Each engine's global buffer holds
// produced atom outputs (ofmaps) and weight slices. When storing a new
// tensor overflows the buffer, the resident entry with the largest
// *invalid occupation* — (earliest reuse Round − current Round) × tensor
// size — is written back to external memory; entries with no remaining
// consumer are released without write-back.
//
// Because DNN inference is static, the manager runs at compile time,
// replaying the schedule Round by Round and emitting the exact DRAM/NoC/
// SRAM traffic of each Round for the simulator and the energy model.
package buffer

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// outLoc is where an atom's output is: the engine holding it (-1 when
// off-chip or absent) and, while the current Round sends it on-chip,
// 1 + the index of the Round's group carrying it (0 otherwise). Only an
// eviction moves an output mid-Round, and then off-chip, so an output
// leaves one engine per Round. The group sits beside the engine so the
// replay reads both with one load.
type outLoc struct {
	engine int32
	group  int32
}

// rowInput is one on-chip input of a DAG row: the producer atom, the
// engine holding its output, the bytes each atom of the row reads, and
// the current Round's group carrying it (-1 until the row first sends
// it).
type rowInput struct {
	dep, src, group int32
	bytes           int64
}

// entry is one resident tensor in an engine's buffer: an atom's output
// (keyed by atom ID) or a weight slice (keyed by slice id).
type entry struct {
	id    int32
	bytes int64
}

// Group is one multicast group of a Round: every on-chip transfer of one
// tensor from one source engine. The NoC moves it once, as one tree from
// Src to each engine of its destination set (RoundIO.DestSet), so the
// tree carries the largest member transfer's bytes.
type Group struct {
	Src   int
	Key   int64 // the tensor: producer atom ID + 1, or a weight slice's tag
	Bytes int64 // the largest member transfer
}

// Placement resolves each atom of the Round being replayed to the engine
// that runs it; the replay asks for no other atom, and a negative or
// out-of-range engine fails the Round. *mapping.Result satisfies it;
// tests substitute a plain map.
type Placement interface {
	Engine(atomID int) int
}

// RoundIO is the data movement of one Round, per engine where relevant.
type RoundIO struct {
	DRAMReadBytes  []int64 // per engine: weights + off-chip input fetches
	DRAMWriteBytes []int64 // per engine: evictions + unbufferable outputs
	SRAMReadBytes  []int64
	SRAMWriteBytes []int64

	// On-chip transfers between engines, one Group per (Src, Key) in the
	// order the replay first needed each. Dests holds the groups'
	// destination bitsets, DestWords words each (one per 64 engines).
	Groups    []Group
	Dests     []uint64
	DestWords int
	// The transfers folded into Groups, one per consumer fetch of a
	// remote tensor (an engine fetching one tensor twice counts twice),
	// and the sum of their bytes.
	FlowCount int
	FlowBytes int64

	// Reuse accounting for Table II.
	InputBytesTotal  int64 // all input tensor bytes consumed this Round
	InputBytesOnChip int64 // the subset served from distributed buffers
}

// DestSet returns the destination-engine bitset of group g.
func (io *RoundIO) DestSet(g int) []uint64 {
	return io.Dests[g*io.DestWords : (g+1)*io.DestWords]
}

// reset prepares io for a new Round of `engines` engines, reusing its
// per-engine slices and group capacity.
func (io *RoundIO) reset(engines int) {
	for _, s := range []*[]int64{
		&io.DRAMReadBytes, &io.DRAMWriteBytes, &io.SRAMReadBytes, &io.SRAMWriteBytes,
	} {
		if cap(*s) >= engines {
			*s = (*s)[:engines]
			for i := range *s {
				(*s)[i] = 0
			}
		} else {
			*s = make([]int64, engines)
		}
	}
	io.Groups, io.Dests = io.Groups[:0], io.Dests[:0]
	io.DestWords = (engines + 63) / 64
	io.FlowCount, io.FlowBytes = 0, 0
	io.InputBytesTotal, io.InputBytesOnChip = 0, 0
}

// reserve makes room for n more groups without reallocating.
func (io *RoundIO) reserve(n int) {
	io.Groups = slices.Grow(io.Groups, n)
	io.Dests = slices.Grow(io.Dests, n*io.DestWords)
}

// join adds a transfer of bytes to engine dst to group g.
func (io *RoundIO) join(g, dst int, bytes int64) {
	gr := &io.Groups[g]
	gr.Bytes = max(gr.Bytes, bytes)
	io.Dests[g*io.DestWords+dst>>6] |= 1 << (dst & 63)
}

// Manager replays a schedule against the distributed buffers. All of its
// state is dense and O(atoms + weight slices): per-engine entry lists
// with swap-remove, a per-slice engine bitset of weight holders, and
// ascending use-Round lists walked by cursors that only move forward.
type Manager struct {
	dag      *atom.DAG
	sched    *schedule.Schedule
	engines  int
	capacity int64

	resident []outLoc  // atom ID -> where its output is
	written  []bool    // atom ID -> a copy exists in DRAM
	outPos   []int32   // atom ID -> index of its entry in outs[resident], -1 if unbuffered
	outs     [][]entry // per engine: buffered outputs, unordered
	wts      [][]entry // per engine: buffered weight slices, unordered
	used     []int64
	round    int

	// Weight slices are keyed by their DAG slice id (atom.DAG.WeightSlice).
	holders []uint64 // slice id -> bitset of engines caching it, hw words each
	hw      int
	wtag0   int64 // group key of slice 0; every atom key lies below it

	// Use Rounds in CSR form: the Rounds consuming atom id are
	// consRounds[consOff[id]:consOff[id+1]], ascending, and consCur[id]
	// indexes the first one not before the current Round. Replay Rounds
	// only increase, so the cursors only move forward. wOff/wRounds/wCur
	// are the same per weight slice.
	consOff, consRounds, consCur []int32
	wOff, wRounds, wCur          []int32

	evictions int64
	highWater int64 // largest bytes any engine's buffer ever held

	// streamBy[w] is the engine that streamed slice w from DRAM in the
	// current Round, valid when streamStamp[w] == stamp. The stamp grows
	// every Round and is never reset, so stale slots read as absent.
	stamp       int64
	streamStamp []int64
	streamBy    []int32

	// The current Round's weight groups, found by direct index: wGroup[w]
	// is 1 + the head of slice w's chain of groups, linked by gnext, or 0.
	// Consumers forward a slice from their nearest holder, so it may leave
	// several engines in one Round. Atom outputs keep their group in
	// resident. clearGroups zeroes both once the Round's sends are done.
	wGroup []int32
	gnext  []int32

	// The current row run (see fetchInputs): the inputs of the DAG row
	// the last atom belonged to, valid while outMoves, which counts
	// outputs leaving their engine, still reads rowMoves. rowOnChip sums
	// the on-chip inputs' bytes, and srcBytes/srcIns[e] are the bytes and
	// count of those held on engine e. runCnt[e] counts the run's atoms on
	// engine e, runSet marks those engines and runLen counts them all;
	// ungrouped counts the inputs no atom of the run has sent yet.
	row                int
	rowIns             []rowInput
	rowFetched         int64
	rowOnChip          int64
	outMoves, rowMoves int64
	srcBytes           []int64
	srcIns             []int32
	runCnt             []int32
	runSet             []uint64
	runLen             int32
	ungrouped          int

	// Reset scratch.
	order []int32
	cnt   []int32
}

// New builds a Manager for the DAG and schedule on `engines` buffers of
// capacityBytes each.
func New(d *atom.DAG, s *schedule.Schedule, engines int, capacityBytes int64) (*Manager, error) {
	m := &Manager{}
	if err := m.Reset(d, s, engines, capacityBytes); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset re-targets a Manager at a (possibly different) DAG and schedule,
// reusing its allocations, which is what lets the simulator pool Managers
// between sim.Run calls. A freshly Reset Manager replays identically to a
// freshly New'd one.
func (m *Manager) Reset(d *atom.DAG, s *schedule.Schedule, engines int, capacityBytes int64) error {
	if engines <= 0 || capacityBytes <= 0 {
		return fmt.Errorf("buffer: engines=%d capacity=%d", engines, capacityBytes)
	}
	m.dag, m.sched = d, s
	m.engines, m.capacity = engines, capacityBytes
	n := d.NumAtoms()
	m.resident = fill(m.resident, n, outLoc{engine: -1})
	m.written = fill(m.written, n, false)
	m.outPos = fill(m.outPos, n, -1)
	m.outs = resetEntries(m.outs, engines)
	m.wts = resetEntries(m.wts, engines)
	m.used = fill(m.used, engines, 0)
	m.round = 0
	m.srcBytes = fill(m.srcBytes, engines, 0)
	m.srcIns = fill(m.srcIns, engines, 0)
	m.runCnt = fill(m.runCnt, engines, 0)
	m.runSet = fill(m.runSet, (engines+63)/64, 0)
	m.rowIns, m.runLen = m.rowIns[:0], 0
	m.evictions, m.highWater = 0, 0

	nw := d.NumWeightSlices()
	m.hw = (engines + 63) / 64
	m.holders = fill(m.holders, nw*m.hw, 0)
	m.wtag0 = int64(n) + 1
	if cap(m.streamStamp) < nw {
		m.streamStamp = make([]int64, nw)
		m.streamBy = make([]int32, nw)
	}
	m.streamStamp, m.streamBy = m.streamStamp[:nw], m.streamBy[:nw]
	m.wGroup = fill(m.wGroup, nw, 0)

	// Scheduled atoms in (Round, ID) order, by one counting pass over
	// Rounds: appending each atom's Round to its producers' and its weight
	// slice's lists in this order leaves every list ascending.
	rounds := 0
	for _, r := range s.AtomRound {
		rounds = max(rounds, r+1)
	}
	cnt := fill(m.cnt, rounds+1, 0)
	for _, r := range s.AtomRound {
		if r >= 0 {
			cnt[r+1]++
		}
	}
	for r := 1; r <= rounds; r++ {
		cnt[r] += cnt[r-1]
	}
	order := fill(m.order, int(cnt[rounds]), 0)
	for id, r := range s.AtomRound {
		if r >= 0 {
			order[cnt[r]] = int32(id)
			cnt[r]++
		}
	}
	m.cnt, m.order = cnt, order

	// The atoms of a DAG row share their producers, and order lists a
	// row's atoms of one Round together: only the first of them adds that
	// Round to the producers' lists, since a repeat changes no next or
	// last use.
	m.consOff = fill(m.consOff, n+1, 0)
	m.wOff = fill(m.wOff, nw+1, 0)
	prevRow, prevR := -1, -1
	for _, id := range order {
		if row, r := d.Row(int(id)), s.AtomRound[id]; row != prevRow || r != prevR {
			prevRow, prevR = row, r
			deps, _, off := d.Deps(int(id))
			for _, dep := range deps {
				m.consOff[dep+off+1]++
			}
		}
		if w := d.WeightSlice(int(id)); w >= 0 {
			m.wOff[w+1]++
		}
	}
	m.consRounds, m.consCur = prefixLists(m.consOff, m.consRounds, m.consCur)
	m.wRounds, m.wCur = prefixLists(m.wOff, m.wRounds, m.wCur)
	prevRow, prevR = -1, -1
	for _, id := range order {
		r := int32(s.AtomRound[id])
		if row := d.Row(int(id)); row != prevRow || int(r) != prevR {
			prevRow, prevR = row, int(r)
			deps, _, off := d.Deps(int(id))
			for _, dep := range deps {
				dep += off
				m.consRounds[m.consCur[dep]] = r
				m.consCur[dep]++
			}
		}
		if w := d.WeightSlice(int(id)); w >= 0 {
			m.wRounds[m.wCur[w]] = r
			m.wCur[w]++
		}
	}
	copy(m.consCur, m.consOff)
	copy(m.wCur, m.wOff)
	return nil
}

// prefixLists turns per-list counts in off[1:] into CSR offsets and sizes
// the value and cursor slices; each cursor starts at its list's head.
func prefixLists(off, vals, cur []int32) ([]int32, []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	vals = fill(vals, int(off[len(off)-1]), 0)
	cur = fill(cur, len(off)-1, 0)
	copy(cur, off)
	return vals, cur
}

// fill returns buf resized to n, reusing its capacity, with every element
// set to v.
func fill[T any](buf []T, n int, v T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// resetEntries returns per-engine entry lists for `engines` engines, all
// empty, keeping the inner capacity of lists it already had.
func resetEntries(lists [][]entry, engines int) [][]entry {
	if cap(lists) < engines {
		lists = make([][]entry, engines)
	}
	lists = lists[:engines]
	for e := range lists {
		lists[e] = lists[e][:0]
	}
	return lists
}

// weightTag is the group key of weight slice w. Keys of slices follow
// their ids and lie above every atom key (producer ID + 1), so the NoC's
// link-claim order puts ifmap groups before weight groups.
func (m *Manager) weightTag(w int32) int64 { return m.wtag0 + int64(w) }

// holderSet returns the engine bitset of weight slice w.
func (m *Manager) holderSet(w int32) []uint64 {
	return m.holders[int(w)*m.hw : (int(w)+1)*m.hw]
}

// has reports whether bitset h contains engine e.
func has(h []uint64, e int) bool { return h[e>>6]&(1<<(e&63)) != 0 }

// Locate reports the engine currently holding atom id's output (-1 when
// off-chip). It implements mapping.Locator.
func (m *Manager) Locate(id int) int { return int(m.resident[id].engine) }

// HasWeights reports whether engine e currently caches weight slice w.
// It implements mapping.WeightLocator.
func (m *Manager) HasWeights(e, w int) bool { return has(m.holderSet(int32(w)), e) }

// Evictions returns the cumulative number of overflow write-backs.
func (m *Manager) Evictions() int64 { return m.evictions }

// HighWater returns the largest byte count any engine's buffer held at
// any point of the replay — how close the schedule came to capacity.
func (m *Manager) HighWater() int64 { return m.highWater }

// Capacity returns the per-engine buffer capacity in bytes.
func (m *Manager) Capacity() int64 { return m.capacity }

// ExecuteRoundInto replays Round t with the given atom placement into a
// caller-owned RoundIO. Rounds must be executed in order starting from 0.
// It reuses the RoundIO's per-engine slices and group capacity: the
// pipelined simulator cycles a small ring of RoundIOs through it so the
// replay stops allocating after the first few Rounds.
func (m *Manager) ExecuteRoundInto(t int, placement Placement, io *RoundIO) error {
	if t != m.round {
		return fmt.Errorf("buffer: ExecuteRoundInto(%d) out of order, want %d", t, m.round)
	}
	m.round++
	// Streamed (uncacheable) weight slices fetched from DRAM are still
	// broadcast on-chip within the Round: the first engine reads HBM and
	// forwards to later engines needing the same slice.
	m.stamp++
	io.reset(m.engines)
	m.gnext = m.gnext[:0]
	m.row = -1 // the cached row inputs name the last Round's groups
	roundAtoms := m.sched.Rounds[t].Atoms
	// Phase 1: fetch inputs and weights for every atom in the Round.
	sramR, sramW, dramR := io.SRAMReadBytes, io.SRAMWriteBytes, io.DRAMReadBytes
	var inTotal, inOnChip, flowBytes int64
	var flows int
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		if e < 0 || e >= m.engines {
			m.endRun(io)
			m.clearGroups(io)
			return fmt.Errorf("buffer: atom %d has no valid placement", id)
		}
		local, remote, fetched, n := m.fetchInputs(io, id, e)
		flows += n
		inTotal += local + remote + fetched
		inOnChip += local + remote
		flowBytes += remote
		sramR[e] += local
		sramW[e] += remote
		dramR[e] += fetched
		w := int32(m.dag.WeightSlice(id))
		if w < 0 {
			continue
		}
		bytes := m.dag.Atoms[id].Task.WeightBytes()
		h := m.holderSet(w)
		switch src := nearestHolder(h, e); {
		case src == e:
			// Local copy.
			sramR[e] += bytes
		case src >= 0:
			// Another engine caches the slice: forward over the NoC
			// instead of re-reading HBM (7 pJ/bit vs 0.61 pJ/bit/hop).
			io.join(m.weightGroup(io, w, src), e, bytes)
			flows++
			flowBytes += bytes
			sramR[src] += bytes
			sramW[e] += bytes
			m.store(e, true, w, bytes, t, io)
		case m.streamStamp[w] == m.stamp:
			// Broadcast of a streamed slice within this Round.
			src := int(m.streamBy[w])
			io.join(m.weightGroup(io, w, src), e, bytes)
			flows++
			flowBytes += bytes
			sramR[src] += bytes
			sramW[e] += bytes
		default:
			dramR[e] += bytes
			m.streamStamp[w], m.streamBy[w] = m.stamp, int32(e)
			m.store(e, true, w, bytes, t, io)
		}
	}
	m.endRun(io)
	m.clearGroups(io)
	io.InputBytesTotal, io.InputBytesOnChip = inTotal, inOnChip
	io.FlowCount, io.FlowBytes = flows, flowBytes
	// Phase 2: retire consumed inputs whose last consumer has now run.
	for _, id := range roundAtoms {
		deps, _, off := m.dag.Deps(id)
		for _, dep := range deps {
			dep := int(dep + off)
			if e := int(m.resident[dep].engine); e >= 0 && m.lastUse(dep) <= t {
				m.release(e, dep)
			}
		}
	}
	// Phase 3: store produced outputs.
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		out := m.dag.Atoms[id].OutputBytes()
		io.SRAMWriteBytes[e] += out
		if m.lastUse(id) < 0 || out > m.capacity {
			// Final outputs (no consumers) stream to DRAM; outputs that
			// can never fit spill directly.
			io.DRAMWriteBytes[e] += out
			m.written[id] = true
			continue
		}
		m.store(e, false, int32(id), out, t, io)
		m.resident[id].engine = int32(e)
	}
	return nil
}

// fetchInputs serves atom id's inputs on engine e: from e's own buffer,
// as a member of the producer's group when another engine holds the
// output, or from DRAM. It returns the bytes served each way and the
// number of on-chip transfers.
//
// The atoms of one DAG row read the same inputs at the same bytes, and a
// Round lists a row's atoms together, so the replay serves a row run —
// the row's consecutive atoms while no output leaves its engine — as one
// unit. startRun locates the row's inputs once and sums their bytes per
// holding engine, so an atom's local bytes are its engine's sum, its
// remote bytes the rest of the on-chip bytes, and its transfers the
// on-chip inputs held elsewhere: O(1) per atom. Only group opening
// stays per input (openGroups), and it ends early in a run: after the
// first atom every input on another engine has a group, and after an
// atom on a second engine every input does. Each transfer's destination
// bit and its source's SRAM read are folded into the groups once, when
// the run ends (endRun); a group's order is fixed when it opens, so the
// fold changes none.
func (m *Manager) fetchInputs(io *RoundIO, id, e int) (local, remote, fetched int64, flows int) {
	if row := m.dag.Row(id); row != m.row || m.outMoves != m.rowMoves {
		m.endRun(io)
		m.startRun(id, row)
	}
	if m.ungrouped > 0 {
		m.openGroups(io, e)
	}
	m.runCnt[e]++
	m.runSet[e>>6] |= 1 << (e & 63)
	m.runLen++
	local = m.srcBytes[e]
	return local, m.rowOnChip - local, m.rowFetched, len(m.rowIns) - int(m.srcIns[e])
}

// startRun opens a row run at atom id of DAG row row: it locates the
// row's on-chip inputs, sums their bytes and count per holding engine,
// and totals the bytes of its off-chip ones.
func (m *Manager) startRun(id, row int) {
	m.row, m.rowMoves = row, m.outMoves
	deps, depBytes, off := m.dag.Deps(id)
	ins := m.rowIns[:0]
	m.rowFetched, m.rowOnChip = 0, 0
	for di, dep := range deps {
		dep += off
		b := depBytes[di]
		if src := m.resident[dep].engine; src >= 0 {
			ins = append(ins, rowInput{dep: dep, src: src, group: -1, bytes: b})
			m.srcBytes[src] += b
			m.srcIns[src]++
			m.rowOnChip += b
		} else {
			m.rowFetched += b
		}
	}
	m.rowIns, m.ungrouped = ins, len(ins)
}

// openGroups gives every input of the run that engine e fetches remotely
// and no earlier atom of the run has sent its group: the producer's
// group of the Round, opened on first need. The producing atom's tile
// often feeds several engines in one Round (channel-partitioned
// consumers): grouping by producer lets the NoC multicast it. Every atom
// of the run joins a group at the same bytes, so only the run's first
// transfer can raise them.
func (m *Manager) openGroups(io *RoundIO, e int) {
	io.reserve(m.ungrouped)
	groups, dests := io.Groups, io.Dests
	hw := io.DestWords
	for i := range m.rowIns {
		in := &m.rowIns[i]
		if in.group >= 0 || int(in.src) == e {
			continue
		}
		g := int(m.resident[in.dep].group) - 1
		if g < 0 {
			g = len(groups)
			groups = groups[:g+1]
			groups[g] = Group{Src: int(in.src), Key: int64(in.dep) + 1}
			dests = dests[:len(dests)+hw]
			clear(dests[g*hw:])
			m.resident[in.dep].group = int32(g) + 1
		}
		groups[g].Bytes = max(groups[g].Bytes, in.bytes)
		in.group = int32(g)
		m.ungrouped--
	}
	io.Groups, io.Dests = groups, dests
}

// endRun folds the run's transfers into the Round: each on-chip input
// goes to every engine of the run but its holder, so its group's
// destination set gains those engines and its holder reads it once per
// atom on them. It then clears the run's per-engine counts.
func (m *Manager) endRun(io *RoundIO) {
	if m.runLen == 0 {
		return
	}
	sramR, dests, hw := io.SRAMReadBytes, io.Dests, io.DestWords
	for i := range m.rowIns {
		in := &m.rowIns[i]
		src := int(in.src)
		m.srcBytes[src], m.srcIns[src] = 0, 0
		n := m.runLen - m.runCnt[src]
		if n == 0 {
			continue // every atom of the run reads it locally
		}
		sramR[src] += int64(n) * in.bytes
		d := dests[int(in.group)*hw:][:hw]
		for w, word := range m.runSet {
			if w == src>>6 {
				word &^= 1 << (src & 63)
			}
			d[w] |= word
		}
	}
	for w, word := range m.runSet {
		for ; word != 0; word &= word - 1 {
			m.runCnt[w<<6|bits.TrailingZeros64(word)] = 0
		}
		m.runSet[w] = 0
	}
	m.runLen = 0
}

// weightGroup returns the current Round's group carrying weight slice w
// from engine src, opening it if the Round has none yet.
func (m *Manager) weightGroup(io *RoundIO, w int32, src int) int {
	head := m.wGroup[w] - 1
	for g := head; g >= 0; g = m.gnext[g] {
		if io.Groups[g].Src == src {
			return int(g)
		}
	}
	g := len(io.Groups)
	io.Groups = append(io.Groups, Group{Src: src, Key: m.weightTag(w)})
	io.Dests = append(io.Dests, make([]uint64, io.DestWords)...)
	for len(m.gnext) <= g {
		m.gnext = append(m.gnext, -1) // producer groups have no chain
	}
	m.gnext[g] = head
	m.wGroup[w] = int32(g) + 1
	return g
}

// clearGroups unmarks every tensor the Round's groups carry, so the next
// Round opens its own.
func (m *Manager) clearGroups(io *RoundIO) {
	for _, g := range io.Groups {
		if g.Key < m.wtag0 {
			m.resident[g.Key-1].group = 0
		} else {
			m.wGroup[g.Key-m.wtag0] = 0
		}
	}
}

// store inserts a tensor — weight slice id or atom id's output — into
// engine e's buffer, evicting per Algorithm 3 until it fits. Entries that
// could never pay for the evictions they force are not cached: weight
// slices above three quarters of the buffer stream through (their
// per-pass window is tiny), and outputs above the full capacity spill
// directly — without this guard a single oversized tensor would write
// back an entire buffer of useful ofmaps and still not fit.
func (m *Manager) store(e int, weight bool, id int32, bytes int64, t int, io *RoundIO) {
	if (weight && bytes > m.capacity*3/4) || (!weight && bytes > m.capacity) {
		m.spill(e, weight, id, bytes, io)
		return
	}
	for m.used[e]+bytes > m.capacity {
		if !m.evictOne(e, t, io) {
			// Nothing evictable (pathological tiny buffer): spill the
			// new entry itself.
			m.spill(e, weight, id, bytes, io)
			return
		}
	}
	m.used[e] += bytes
	if m.used[e] > m.highWater {
		m.highWater = m.used[e]
	}
	if weight {
		m.wts[e] = append(m.wts[e], entry{id: id, bytes: bytes})
		m.holders[int(id)*m.hw+e>>6] |= 1 << (e & 63)
	} else {
		m.outPos[id] = int32(len(m.outs[e]))
		m.outs[e] = append(m.outs[e], entry{id: id, bytes: bytes})
	}
}

// spill accounts a tensor that store could not cache: an output is
// written to DRAM; a weight slice is simply not kept.
func (m *Manager) spill(e int, weight bool, id int32, bytes int64, io *RoundIO) {
	if !weight {
		io.DRAMWriteBytes[e] += bytes
		m.written[id] = true
	}
}

// nearestHolder picks the engine in bitset h with the smallest index
// distance to e, the smaller index on a tie, or -1 when h is empty — a
// mesh-free proximity proxy (engine indices are row-major, so close
// indices are close on the mesh).
func nearestHolder(h []uint64, e int) int {
	best, bestD := -1, 1<<30
	for wi, word := range h {
		for word != 0 {
			x := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			d := x - e
			if d < 0 {
				d = -d
			}
			if d >= bestD {
				return best // holders ascend, so distances only grow from here
			}
			best, bestD = x, d
		}
	}
	return best
}

// evictOne applies Algorithm 3 to engine e: release any entry with no
// future use; otherwise write back the entry with the largest invalid
// occupation (t_next − t) × size. Returns false if the buffer is empty.
//
// Candidates are ranked by an explicit total order — dead entries by
// smallest key, live victims by (occupation, kind, key) — never by their
// position in the unordered entry lists, which swap-remove reshuffles.
// Eviction choices shape DRAM traffic and flows, so the ranking alone
// must decide them.
func (m *Manager) evictOne(e, t int, io *RoundIO) bool {
	// Pass 1: free entries with no future use (paper line 8-12). The
	// current Round t still counts as a future use: eviction can run
	// mid-Round, before every fetch of Round t has been served, so
	// entries consumed this Round get occupation 0 (kept if possible)
	// rather than being dropped as dead.
	outs, wts := m.outs[e], m.wts[e]
	victim, victimOcc, victimWeight := -1, int64(-1), false
	dead := -1
	for i, ent := range outs {
		tn := nextUse(m.consRounds, m.consOff, m.consCur, ent.id, t)
		if tn < 0 {
			if dead < 0 || ent.id < outs[dead].id {
				dead = i
			}
			continue
		}
		occ := int64(tn-t) * ent.bytes
		if occ > victimOcc || (occ == victimOcc && ent.id < outs[victim].id) {
			victimOcc, victim = occ, i
		}
	}
	if dead >= 0 {
		m.removeOutput(e, dead)
		return true
	}
	for i, ent := range wts {
		tn := nextUse(m.wRounds, m.wOff, m.wCur, ent.id, t)
		if tn < 0 {
			if dead < 0 || ent.id < wts[dead].id {
				dead = i
			}
			continue
		}
		// Weights are immutable in DRAM: evicting one costs a refetch but
		// no write-back, and the global reuse-round estimate is
		// optimistic (the next user may be another engine entirely), so
		// weight entries are biased toward eviction over dirty ofmaps.
		// On an occupation tie a dirty ofmap victim is kept over a weight
		// victim for the same reason.
		occ := 2 * int64(tn-t) * ent.bytes
		if occ > victimOcc || (occ == victimOcc && victimWeight && ent.id < wts[victim].id) {
			victimOcc, victim, victimWeight = occ, i, true
		}
	}
	if dead >= 0 {
		m.removeWeight(e, dead)
		return true
	}
	if victim < 0 {
		return false
	}
	// Pass 2: write back the worst occupier.
	if victimWeight {
		// Weights are immutable in DRAM: dropping is free.
		m.removeWeight(e, victim)
	} else {
		ent := outs[victim]
		if !m.written[ent.id] {
			io.DRAMWriteBytes[e] += ent.bytes
			m.written[ent.id] = true
		}
		m.removeOutput(e, victim)
	}
	m.evictions++
	return true
}

// release drops atom id's output from engine e's buffer, if it is there.
func (m *Manager) release(e, id int) {
	if p := m.outPos[id]; p >= 0 {
		m.removeOutput(e, int(p))
	}
}

// removeOutput swap-removes entry p of engine e's output list.
func (m *Manager) removeOutput(e, p int) {
	buf := m.outs[e]
	ent := buf[p]
	last := len(buf) - 1
	if p != last {
		buf[p] = buf[last]
		m.outPos[buf[p].id] = int32(p)
	}
	m.outs[e] = buf[:last]
	m.outPos[ent.id] = -1
	m.resident[ent.id].engine = -1
	m.outMoves++
	m.used[e] -= ent.bytes
}

// removeWeight swap-removes entry p of engine e's weight list.
func (m *Manager) removeWeight(e, p int) {
	buf := m.wts[e]
	ent := buf[p]
	last := len(buf) - 1
	buf[p] = buf[last]
	m.wts[e] = buf[:last]
	m.used[e] -= ent.bytes
	m.holders[int(ent.id)*m.hw+e>>6] &^= 1 << (e & 63)
}

// nextUse returns the earliest Round at or after t in list id of a CSR
// use-Round table, or -1 if none remains. It advances the list's cursor
// past earlier Rounds, so t must never decrease between calls.
func nextUse(rounds, off, cur []int32, id int32, t int) int {
	c, end := cur[id], off[id+1]
	for c < end && int(rounds[c]) < t {
		c++
	}
	cur[id] = c
	if c == end {
		return -1
	}
	return int(rounds[c])
}

// lastUse returns the final consuming Round of atom id, or -1 if none.
func (m *Manager) lastUse(id int) int {
	if lo, hi := m.consOff[id], m.consOff[id+1]; hi > lo {
		return int(m.consRounds[hi-1])
	}
	return -1
}
