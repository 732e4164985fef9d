package check

import (
	"errors"
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// Program checks a lowered program, one instruction stream per engine,
// as an execution of d on r's hardware. It replays the streams Round by
// Round against a buffer of r.Engine.BufferBytes per engine (Algorithm
// 3's capacity), a DRAM that holds every weight slice and graph input
// from the start, and, when r names a 2D mesh, its XY routes:
//
//   - each stream runs Rounds 0 to r.Rounds-1 in order, each closed by
//     one SYNC, and its COMPUTEs, at most one per Round, form a schedule
//     Rounds accepts;
//   - a COMPUTE finds every input edge of its atom, at the edge's bytes,
//     resident in the engine's buffer or RECV'd or LOAD_IN'd in its
//     Round, and its weight slice likewise; every RECV and LOAD_IN feeds
//     the Round's COMPUTE, so each edge's bytes move exactly once;
//   - STORE keeps a tensor the engine computed, received or loaded in
//     the Round and does not already hold, and never lifts the engine's
//     resident bytes above the capacity; EVICT drops a resident tensor
//     at its bytes; SEND forwards a tensor the engine holds, received or
//     loaded; LOAD_IN never reads a tensor the engine holds;
//   - LOAD_IN reads an atom output only once DRAM holds it, by the end
//     of the load's Round; WRITEBK writes an atom output the engine
//     holds or computed, at its full bytes, once; every output no atom
//     reads, the network's result, ends in DRAM;
//   - each Round's SENDs and RECVs pair up by source, destination,
//     tensor and bytes;
//   - LOAD_IN and WRITEBK bytes sum to r's DRAM read and write bytes,
//     and on a 2D mesh the NoC byte-hops are r's: one multicast group
//     per (Round, source, tensor) carries its largest SEND's bytes over
//     the union of the XY routes to its destinations.
//
// It returns the first violation in the streams; if there is none,
// every total that disagrees with r, one line each.
func Program(d *atom.DAG, streams [][]Instr, r Totals) error {
	n := len(streams)
	if n != r.Engines || r.Rounds < 0 {
		return fmt.Errorf("check: the program has %d streams for %d engines and %d Rounds", n, r.Engines, r.Rounds)
	}
	mesh := r.MeshW > 0
	if mesh && r.MeshW*r.MeshH != n {
		return fmt.Errorf("check: a %dx%d mesh for %d engines", r.MeshW, r.MeshH, n)
	}
	m := &machine{
		d: d, engines: int32(n), capacity: int64(r.Engine.BufferBytes),
		resident: make(map[slot]int64),
		used:     make([]int64, n),
		inDRAM:   make([]bool, d.NumAtoms()),
		pairs:    make(map[flow]int),
		groups:   make(map[slot]*mgroup),
		rounds:   make([][]int, r.Rounds),
		meshW:    r.MeshW,
	}
	for id := range d.Atoms {
		m.inDRAM[id] = d.Atoms[id].Task.Kind == graph.OpInput
	}
	if mesh {
		m.linkStamp = make([]int64, 4*n)
	}
	cur := make([]int, n)
	for t := range r.Rounds {
		m.round = int32(t)
		for e, s := range streams {
			m.engine, m.computed = int32(e), -1
			for {
				if cur[e] == len(s) {
					return m.errf("the stream ends before the Round's SYNC")
				}
				in := s[cur[e]]
				cur[e]++
				if in.Round != m.round {
					return m.errf("%v belongs to round %d", in, in.Round)
				}
				if in.Op == OpSync {
					break
				}
				if err := m.step(in); err != nil {
					return err
				}
			}
			for _, st := range m.staged {
				if !st.fed {
					return m.errf("%v %v (%d bytes) feeds no COMPUTE", st.op, st.t, st.bytes)
				}
			}
			m.staged = m.staged[:0]
		}
		if err := m.endRound(mesh); err != nil {
			return err
		}
	}
	for e, s := range streams {
		if cur[e] < len(s) {
			return fmt.Errorf("check: engine %d: %d instructions after the last SYNC", e, len(s)-cur[e])
		}
	}
	if _, err := roundOf(d, m.rounds, n); err != nil {
		return err
	}
	// The network's results: every output no atom reads ends in DRAM.
	read := make([]bool, d.NumAtoms())
	for id := range d.Atoms {
		deps, _, off := d.Deps(id)
		for _, dep := range deps {
			read[dep+off] = true
		}
	}
	for id, ok := range m.inDRAM {
		if !ok && !read[id] {
			return fmt.Errorf("check: atom %d's output is read by no atom and never written back", id)
		}
	}
	var errs []error
	differ := func(name string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("check: %s: the program moves %d, the report %d", name, got, want))
		}
	}
	differ("DRAM read bytes", m.dramRead, r.DRAMReadBytes)
	differ("DRAM write bytes", m.dramWrite, r.DRAMWriteBytes)
	if mesh {
		differ("NoC byte-hops", m.byteHops, r.NoCByteHops)
	}
	return errors.Join(errs...)
}

// slot is a tensor on one engine; the multicast groups of a Round are
// keyed by it too (source engine, tensor).
type slot struct {
	e int32
	t Tensor
}

// staged is a tensor an engine received or loaded in the current Round:
// it streams through the engine and occupies no buffer space unless
// STOREd. fed marks the COMPUTE input edge it served.
type staged struct {
	op    Op
	t     Tensor
	bytes int64
	fed   bool
}

// flow is one SEND or RECV of a Round, as the two ends must agree on it.
type flow struct {
	src, dst int32
	t        Tensor
	bytes    int64
}

// mgroup is one multicast group of a Round: its largest SEND's bytes and
// its destinations.
type mgroup struct {
	bytes int64
	dsts  []int32
}

// machine is Program's replay state.
type machine struct {
	d        *atom.DAG
	engines  int32
	capacity int64

	resident map[slot]int64 // tensor bytes resident per engine
	used     []int64        // per engine: resident bytes
	inDRAM   []bool         // atom ID -> DRAM holds its output

	// Round state.
	round, engine int32
	computed      int32    // the current engine's COMPUTE this Round, -1 if none
	staged        []staged // the current engine's RECVs and LOAD_INs this Round
	loads         []slot   // LOAD_INs of atom outputs, checked at the Round's end
	pairs         map[flow]int
	groups        map[slot]*mgroup // keyed by source engine and tensor
	rounds        [][]int          // the COMPUTEs, per Round

	meshW     int
	linkStamp []int64 // per directed mesh link (engine*4 + direction)
	stamp     int64

	dramRead, dramWrite, byteHops int64
}

func (m *machine) errf(format string, args ...any) error {
	return fmt.Errorf("check: engine %d round %d: "+format, append([]any{m.engine, m.round}, args...)...)
}

// holds reports whether tensor t is resident on the current engine.
func (m *machine) holds(t Tensor) bool {
	_, ok := m.resident[slot{m.engine, t}]
	return ok
}

// stagedAt returns the index of a tensor the current engine received or
// loaded this Round at the given bytes (any bytes when bytes < 0), one
// that fed no COMPUTE yet when unfed is set, or -1.
func (m *machine) stagedAt(t Tensor, bytes int64, unfed bool) int {
	for i, st := range m.staged {
		if st.t == t && (bytes < 0 || st.bytes == bytes) && !(unfed && st.fed) {
			return i
		}
	}
	return -1
}

// known reports whether t names a tensor of the DAG.
func (m *machine) known(t Tensor) bool {
	if t.Weight {
		return t.ID >= 0 && int(t.ID) < m.d.NumWeightSlices()
	}
	return t.ID >= 0 && int(t.ID) < m.d.NumAtoms()
}

// peer checks a SEND or RECV's other engine.
func (m *machine) peer(in Instr) error {
	if in.Peer < 0 || in.Peer >= m.engines || in.Peer == m.engine {
		return m.errf("%v: no such peer engine", in)
	}
	return nil
}

// step replays one instruction of the current engine's stream.
func (m *machine) step(in Instr) error {
	t := in.Tensor
	if !m.known(t) && in.Op != OpCompute {
		return m.errf("%v: unknown tensor", in)
	}
	switch in.Op {
	case OpLoadIn:
		if m.holds(t) {
			return m.errf("%v: loads a tensor already resident on the engine", in)
		}
		m.staged = append(m.staged, staged{op: in.Op, t: t, bytes: in.Bytes})
		if !t.Weight {
			m.loads = append(m.loads, slot{m.engine, t})
		}
		m.dramRead += in.Bytes
	case OpRecv:
		if err := m.peer(in); err != nil {
			return err
		}
		m.staged = append(m.staged, staged{op: in.Op, t: t, bytes: in.Bytes})
		m.pairs[flow{in.Peer, m.engine, t, in.Bytes}]--
	case OpSend:
		if err := m.peer(in); err != nil {
			return err
		}
		if !m.holds(t) && m.stagedAt(t, -1, false) < 0 {
			return m.errf("%v: the engine neither holds the tensor nor received or loaded it this Round", in)
		}
		m.pairs[flow{m.engine, in.Peer, t, in.Bytes}]++
		k := slot{m.engine, t}
		g := m.groups[k]
		if g == nil {
			g = &mgroup{}
			m.groups[k] = g
		}
		g.bytes = max(g.bytes, in.Bytes)
		g.dsts = append(g.dsts, in.Peer)
	case OpCompute:
		return m.compute(in)
	case OpStore:
		if m.holds(t) {
			return m.errf("%v: the tensor is already resident", in)
		}
		switch {
		case !t.Weight && t.ID == m.computed:
			if want := m.d.Atoms[t.ID].OutputBytes(); in.Bytes != want {
				return m.errf("%v: the output has %d bytes", in, want)
			}
		case m.stagedAt(t, in.Bytes, false) < 0:
			return m.errf("%v: the engine neither computed the tensor nor received or loaded it this Round", in)
		}
		m.resident[slot{m.engine, t}] = in.Bytes
		if m.used[m.engine] += in.Bytes; m.used[m.engine] > m.capacity {
			return m.errf("%v: %d bytes resident, over the buffer capacity %d", in, m.used[m.engine], m.capacity)
		}
	case OpEvict:
		k := slot{m.engine, t}
		b, ok := m.resident[k]
		if !ok {
			return m.errf("%v: the tensor is not resident", in)
		}
		if b != in.Bytes {
			return m.errf("%v: the tensor is resident at %d bytes", in, b)
		}
		delete(m.resident, k)
		m.used[m.engine] -= b
	case OpWriteback:
		switch {
		case t.Weight:
			return m.errf("%v: weight slices are read-only in DRAM", in)
		case !m.holds(t) && t.ID != m.computed:
			return m.errf("%v: the engine neither holds nor computed the output", in)
		case m.inDRAM[t.ID]:
			return m.errf("%v: DRAM already holds the output: written back twice", in)
		}
		if want := m.d.Atoms[t.ID].OutputBytes(); in.Bytes != want {
			return m.errf("%v: the output has %d bytes", in, want)
		}
		m.inDRAM[t.ID] = true
		m.dramWrite += in.Bytes
	default:
		return m.errf("%v: unknown op", in)
	}
	return nil
}

// compute replays a COMPUTE: every input edge and the weight slice of its
// atom must be on the engine, each staged tensor serving one edge.
func (m *machine) compute(in Instr) error {
	id := in.Tensor.ID
	if in.Tensor.Weight || id < 0 || int(id) >= m.d.NumAtoms() {
		return m.errf("%v: unknown atom", in)
	}
	if m.computed >= 0 {
		return m.errf("%v: the engine already ran atom %d this Round", in, m.computed)
	}
	m.rounds[m.round] = append(m.rounds[m.round], int(id))
	feed := func(t Tensor, bytes int64) error {
		if m.holds(t) {
			return nil
		}
		i := m.stagedAt(t, bytes, true)
		if i < 0 {
			return m.errf("%v: input %v (%d bytes) is not on the engine", in, t, bytes)
		}
		m.staged[i].fed = true
		return nil
	}
	deps, bytes, off := m.d.Deps(int(id))
	for i, dep := range deps {
		if err := feed(Tensor{ID: dep + off}, bytes[i]); err != nil {
			return err
		}
	}
	if w := m.d.WeightSlice(int(id)); w >= 0 {
		if err := feed(Tensor{ID: int32(w), Weight: true}, m.d.Atoms[id].Task.WeightBytes()); err != nil {
			return err
		}
	}
	m.computed = id
	return nil
}

// endRound checks the Round's cross-engine rules once every stream has
// closed it: loads against DRAM, SEND/RECV pairing and, on a mesh, the
// groups' byte-hops.
func (m *machine) endRound(mesh bool) error {
	for _, l := range m.loads {
		if !m.inDRAM[l.t.ID] {
			return fmt.Errorf("check: engine %d round %d: LOAD_IN %v, which DRAM does not hold", l.e, m.round, l.t)
		}
	}
	m.loads = m.loads[:0]
	for f, c := range m.pairs {
		if c != 0 {
			return fmt.Errorf("check: round %d: unmatched transfer of %v E%d->E%d at %d bytes (SENDs - RECVs = %d)",
				m.round, f.t, f.src, f.dst, f.bytes, c)
		}
	}
	clear(m.pairs)
	if mesh {
		for k, g := range m.groups {
			m.byteHops += g.bytes * m.treeLinks(k.e, g.dsts)
		}
	}
	clear(m.groups)
	return nil
}

// treeLinks counts the directed links of the union of the XY routes from
// src to each of dsts: along the source's row to the destination's
// column, then along that column.
func (m *machine) treeLinks(src int32, dsts []int32) int64 {
	m.stamp++
	w := m.meshW
	var links int64
	claim := func(x, y, dir int) {
		if l := 4*(y*w+x) + dir; m.linkStamp[l] != m.stamp {
			m.linkStamp[l] = m.stamp
			links++
		}
	}
	for _, dst := range dsts {
		x, y := int(src)%w, int(src)/w
		dx, dy := int(dst)%w, int(dst)/w
		for ; x < dx; x++ {
			claim(x, y, 0)
		}
		for ; x > dx; x-- {
			claim(x, y, 1)
		}
		for ; y < dy; y++ {
			claim(x, y, 2)
		}
		for ; y > dy; y-- {
			claim(x, y, 3)
		}
	}
	return links
}
