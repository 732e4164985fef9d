package buffer

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// refExecuteRoundInto is ExecuteRoundInto with the per-atom input fetch
// (refFetchInputs) in place of the row-run fetch: every atom locates its
// inputs afresh, opens or joins their groups and charges their SRAM reads
// itself. It is the reference the row-run fetch is held to.
func (m *Manager) refExecuteRoundInto(t int, placement Placement, io *RoundIO) error {
	if t != m.round {
		return fmt.Errorf("buffer: ExecuteRoundInto(%d) out of order, want %d", t, m.round)
	}
	m.round++
	m.stamp++
	io.reset(m.engines)
	m.gnext = m.gnext[:0]
	roundAtoms := m.sched.Rounds[t].Atoms
	sramR, sramW, dramR := io.SRAMReadBytes, io.SRAMWriteBytes, io.DRAMReadBytes
	var inTotal, inOnChip, flowBytes int64
	var flows int
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		if e < 0 || e >= m.engines {
			m.clearGroups(io)
			return fmt.Errorf("buffer: atom %d has no valid placement", id)
		}
		local, remote, fetched, n := m.refFetchInputs(io, id, e)
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
			sramR[e] += bytes
		case src >= 0:
			io.join(m.weightGroup(io, w, src), e, bytes)
			flows++
			flowBytes += bytes
			sramR[src] += bytes
			sramW[e] += bytes
			m.store(e, true, w, bytes, t, io)
		case m.streamStamp[w] == m.stamp:
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
	m.clearGroups(io)
	io.InputBytesTotal, io.InputBytesOnChip = inTotal, inOnChip
	io.FlowCount, io.FlowBytes = flows, flowBytes
	for _, id := range roundAtoms {
		deps, _, off := m.dag.Deps(id)
		for _, dep := range deps {
			dep := int(dep + off)
			if e := int(m.resident[dep].engine); e >= 0 && m.lastUse(dep) <= t {
				m.release(e, dep)
			}
		}
	}
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		out := m.dag.Atoms[id].OutputBytes()
		io.SRAMWriteBytes[e] += out
		if m.lastUse(id) < 0 || out > m.capacity {
			io.DRAMWriteBytes[e] += out
			m.written[id] = true
			continue
		}
		m.store(e, false, int32(id), out, t, io)
		m.resident[id].engine = int32(e)
	}
	return nil
}

// refFetchInputs serves one atom's inputs on engine e by walking every
// on-chip input it locates: a local read, or a transfer that joins (or
// opens) the producer's group, sets e's destination bit and charges the
// source's SRAM read.
func (m *Manager) refFetchInputs(io *RoundIO, id, e int) (local, remote, fetched int64, flows int) {
	ins, fetched := m.refRowInputs(id)
	io.reserve(len(ins))
	groups, dests := io.Groups, io.Dests
	hw, ew, eb := io.DestWords, e>>6, uint64(1)<<(e&63)
	sramR := io.SRAMReadBytes
	for i := range ins {
		in := &ins[i]
		src := int(in.src)
		if src == e {
			local += in.bytes
			continue
		}
		g := int(m.resident[in.dep].group) - 1
		if g < 0 {
			g = len(groups)
			groups = groups[:g+1]
			groups[g] = Group{Src: src, Key: int64(in.dep) + 1}
			dests = dests[:len(dests)+hw]
			for w := g * hw; w < len(dests); w++ {
				dests[w] = 0
			}
			m.resident[in.dep].group = int32(g) + 1
		}
		groups[g].Bytes = max(groups[g].Bytes, in.bytes)
		dests[g*hw+ew] |= eb
		flows++
		remote += in.bytes
		sramR[src] += in.bytes
	}
	io.Groups, io.Dests = groups, dests
	return local, remote, fetched, flows
}

// refRowInputs locates atom id's inputs afresh on every call: the on-chip
// ones with their holding engines, and the bytes of the off-chip ones.
// It keeps no row cache, so the reference never depends on the outMoves
// bookkeeping that tells the row-run fetch when its cached row is stale.
func (m *Manager) refRowInputs(id int) ([]rowInput, int64) {
	deps, depBytes, off := m.dag.Deps(id)
	ins := m.rowIns[:0]
	var fetched int64
	for di, dep := range deps {
		dep += off
		if src := m.resident[dep].engine; src >= 0 {
			ins = append(ins, rowInput{dep: dep, src: src, group: -1, bytes: depBytes[di]})
		} else {
			fetched += depBytes[di]
		}
	}
	m.rowIns = ins
	return ins, fetched
}

// rowProbe wraps a placement. Phase 1 of a replay asks it for each of the
// Round's atoms' engine in turn, just before the atom fetches its inputs,
// so it can count the atoms that follow an atom of their own row after an
// output left its engine: the atoms at which a row run restarts. Later
// calls (phase 3) only place.
type rowProbe struct {
	m       *Manager
	p       Placement
	phase1  int // calls left in phase 1
	prevRow int
	moves   int64
	stale   *int
}

func (r *rowProbe) Engine(id int) int {
	if r.phase1 > 0 {
		r.phase1--
		if row := r.m.dag.Row(id); row == r.prevRow && r.m.outMoves != r.moves {
			*r.stale++
		} else {
			r.prevRow = row
		}
		r.moves = r.m.outMoves
	}
	return r.p.Engine(id)
}

// sharedEngines places the i-th atom of a Round on engine i mod k, so
// several atoms of one row run on one engine: the row-run fetch must
// count a run's atoms per engine rather than assume distinct engines.
type sharedEngines struct {
	slot map[int]int
	k    int
}

func (p sharedEngines) Engine(id int) int {
	if i, ok := p.slot[id]; ok {
		return i % p.k
	}
	return -1
}

// TestRowRunFetchMatchesPerAtom replays schedules through the row-run
// fetch and through the per-atom reference on two Managers fed the same
// placements, and requires every Round's RoundIO to be identical: group
// order, destination sets, flow count and bytes, and every per-engine
// byte slice. It covers every zoo model at batch 1 and 8 under the
// mapper's placement; a starved buffer in which weight stores evict
// outputs between atoms of one row, so runs restart mid-row; and a
// placement that puts several atoms of a Round on one engine.
func TestRowRunFetchMatchesPerAtom(t *testing.T) {
	type tc struct {
		model    string
		batch    int
		capacity int64
		shared   int  // > 0: sharedEngines with this k, else the mapper
		restarts bool // the case must restart a run mid-row
	}
	var cases []tc
	for _, model := range models.Names() {
		for _, batch := range []int{1, 8} {
			cases = append(cases, tc{model: model, batch: batch, capacity: int64(engine.Default().BufferBytes)})
		}
	}
	cases = append(cases,
		tc{model: "resnet50", batch: 4, capacity: 48 << 10, restarts: true},
		tc{model: "inceptionv3", batch: 2, capacity: 32 << 10, restarts: true},
		tc{model: "resnet50", batch: 2, capacity: 64 << 10, shared: 3},
	)
	for _, c := range cases {
		name := fmt.Sprintf("%s/b%d/%dKiB", c.model, c.batch, c.capacity>>10)
		if c.shared > 0 {
			name += fmt.Sprintf("/shared%d", c.shared)
		}
		t.Run(name, func(t *testing.T) {
			mesh := noc.NewMesh(8, 8, 16)
			if c.restarts {
				mesh = noc.NewMesh(4, 4, 16)
			}
			n := mesh.Engines()
			d, s := pipeline(t, c.model, c.batch, n)
			got, err := New(d, s, n, c.capacity)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(d, s, n, c.capacity)
			if err != nil {
				t.Fatal(err)
			}
			mp := mapping.New(mesh, d)
			var pl mapping.Result
			var gotIO, wantIO RoundIO
			stale := 0
			for rt, r := range s.Rounds {
				var p Placement = &pl
				if c.shared > 0 {
					sp := sharedEngines{slot: make(map[int]int), k: c.shared}
					for i, id := range r.Atoms {
						sp.slot[id] = i
					}
					p = sp
				} else {
					mp.PlaceRound(&pl, r.Atoms, got.Locate, got.HasWeights)
				}
				probe := &rowProbe{m: got, p: p, phase1: len(r.Atoms), prevRow: -1, stale: &stale}
				if err := got.ExecuteRoundInto(rt, probe, &gotIO); err != nil {
					t.Fatal(err)
				}
				if err := want.refExecuteRoundInto(rt, p, &wantIO); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotIO, wantIO) {
					t.Fatalf("round %d: row-run fetch\n  %+v\nper-atom fetch\n  %+v", rt, gotIO, wantIO)
				}
			}
			if got.Evictions() != want.Evictions() || got.HighWater() != want.HighWater() {
				t.Fatalf("evictions/high-water %d/%d, reference %d/%d",
					got.Evictions(), got.HighWater(), want.Evictions(), want.HighWater())
			}
			if c.restarts && stale == 0 {
				t.Errorf("no output left its engine between two atoms of one row; no run restarted mid-row")
			}
		})
	}
}
