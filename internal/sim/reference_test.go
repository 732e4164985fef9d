package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// Flow is one per-destination transfer within a Round, the unit the
// reference NoC model times. Flows sharing a non-zero Tag and the same
// Src carry the same tensor: the NoC delivers them as one multicast
// tree, serializing the bytes once per tree link instead of once per
// destination. The buffer replay emits the groups directly; groupFlows
// folds flows into them.
type Flow struct {
	Src, Dst int
	Bytes    int64
	Tag      int64
}

// GroupKey returns the multicast-group key of the flow within its (Src)
// namespace: tagged flows share their Tag (one tree per tensor), while
// unicast flows get a unique negative key per destination so each forms
// its own group.
func (f Flow) GroupKey() int64 {
	if f.Tag != 0 {
		return f.Tag
	}
	return -int64(f.Dst) - 1
}

// groupFlows folds a Round's flows into the records the buffer replay
// emits: one group per (Src, GroupKey) in first-seen order, carrying its
// largest member's bytes, with its members' destinations as its set.
func groupFlows(flows []Flow, engines int) *buffer.RoundIO {
	io := &buffer.RoundIO{DestWords: (engines + 63) / 64}
	type gkey struct {
		src int
		key int64
	}
	index := make(map[gkey]int)
	for _, f := range flows {
		k := gkey{f.Src, f.GroupKey()}
		g, ok := index[k]
		if !ok {
			g = len(io.Groups)
			index[k] = g
			io.Groups = append(io.Groups, buffer.Group{Src: f.Src, Key: k.key})
			io.Dests = append(io.Dests, make([]uint64, io.DestWords)...)
		}
		io.Groups[g].Bytes = max(io.Groups[g].Bytes, f.Bytes)
		io.DestSet(g)[f.Dst>>6] |= 1 << (f.Dst & 63)
		io.FlowCount++
		io.FlowBytes += f.Bytes
	}
	return io
}

// groupMembers unfolds a Round's groups into one flow per (group,
// destination) at the group's bytes. The reference times these exactly
// as it times the flows the groups were folded from: a group moves its
// largest member's bytes, and a repeated destination re-reads the links
// its first route claimed.
func groupMembers(io *buffer.RoundIO) []Flow {
	var flows []Flow
	for g, gr := range io.Groups {
		for wi, word := range io.DestSet(g) {
			for ; word != 0; word &= word - 1 {
				f := Flow{Src: gr.Src, Dst: wi<<6 | bits.TrailingZeros64(word), Bytes: gr.Bytes, Tag: gr.Key}
				if gr.Key < 0 {
					f.Tag = 0 // an untagged unicast group
				}
				flows = append(flows, f)
			}
		}
	}
	return flows
}

// timeGroups orders and walks a Round's groups on a, as the timing stage
// does.
func (a *arena) timeGroups(io *buffer.RoundIO, start int64) (byteHops, claims int64) {
	return a.walkGroups(io, a.orderGroups(io.Groups), start)
}

// simulateFlowsReference serializes the Round's flows on shared links
// (deterministic order) and returns per-destination-engine arrival times,
// the Round's byte-hop volume and the tree links claimed. Unicast flows
// each occupy every link of their XY route; flows sharing (Src, Tag != 0)
// carry one tensor to many engines and occupy the union of their routes
// once (switch-level replication, as in weight broadcast).
//
// This is the executable specification of the NoC contention model; the
// production path is arena.walkGroups, which replays the same walk over
// the replay's group records and link-ID-indexed slices without
// allocating.
func simulateFlowsReference(mesh *noc.Mesh, flows []Flow, start int64) (map[int]int64, int64, int64) {
	type mkey struct {
		src int
		tag int64
	}
	groups := make(map[mkey][]Flow)
	var order []mkey
	for _, f := range flows {
		k := mkey{src: f.Src, tag: f.GroupKey()}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], f)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].src != order[j].src {
			return order[i].src < order[j].src
		}
		ti, tj := order[i].tag, order[j].tag
		ai, aj := ti, tj
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai < aj
		}
		return ti < tj
	})

	linkFree := make(map[noc.Link]int64)
	ready := make(map[int]int64)
	var byteHops, claims int64
	for _, k := range order {
		fs := groups[k]
		sort.Slice(fs, func(i, j int) bool { return fs[i].Dst < fs[j].Dst })
		bytes := fs[0].Bytes
		for _, f := range fs {
			if f.Bytes > bytes {
				bytes = f.Bytes
			}
		}
		ser := (bytes + int64(mesh.LinkBytes) - 1) / int64(mesh.LinkBytes)
		// Walk each destination's route; a link is claimed once per tree
		// (switch-level replication). A link cannot start forwarding
		// before the stream's head reaches it from the upstream link
		// (cut-through), nor while a previous tensor occupies it.
		linkStart := make(map[noc.Link]int64)
		for _, f := range fs {
			head := start
			var lastStart int64 = start
			path := mesh.AppendPath(nil, f.Src, f.Dst)
			for _, l := range path {
				s, claimed := linkStart[l]
				if !claimed {
					s = head
					if lf := linkFree[l]; lf > s {
						s = lf
					}
					linkStart[l] = s
					linkFree[l] = s + ser
				}
				head = s + mesh.HopCycles
				lastStart = s
			}
			arrive := start
			if len(path) > 0 {
				arrive = lastStart + ser + mesh.HopCycles
			}
			if arrive > ready[f.Dst] {
				ready[f.Dst] = arrive
			}
		}
		byteHops += bytes * int64(len(linkStart))
		claims += int64(len(linkStart))
	}
	return ready, byteHops, claims
}

// RunSerial is the reference the pipelined Round loop is tested against:
// sim.Run with prep and time executed back to back on the calling
// goroutine, each Round's groups also timed by the map-based reference
// on their member flows. A Round whose NoC arrivals or byte-hops differ
// from the reference's fails the run. Exported to the package's external
// tests only.
var RunSerial = runSerial

func runSerial(d *atom.DAG, s *schedule.Schedule, cfg Config) (Report, error) {
	r, release, err := newRunner(d, s, cfg)
	if err != nil {
		return Report{}, err
	}
	defer release()
	slot := &r.slots[0]
	for t := range s.Rounds {
		if err := r.pollCtx(); err != nil {
			return Report{}, err
		}
		r.prep(t, slot)
		if slot.err != nil {
			return Report{}, slot.err
		}
		refReady, refHops, _ := simulateFlowsReference(cfg.Mesh, groupMembers(&slot.io), r.now)
		hops0 := r.rep.NoCByteHops
		r.time(slot)
		if hops := r.rep.NoCByteHops - hops0; hops != refHops {
			return Report{}, fmt.Errorf("sim: round %d: byte-hops %d, reference %d", t, hops, refHops)
		}
		for e, at := range r.ar.ready {
			if at != refReady[e] {
				return Report{}, fmt.Errorf("sim: round %d: engine %d NoC arrival %d, reference %d", t, e, at, refReady[e])
			}
		}
	}
	return r.report(), nil
}

// PipelineDepth is the prep-slot ring size, exported to the package's
// external tests only.
const PipelineDepth = pipelineDepth

// RunTable is sim.Run that also returns the run's shared atom-to-engine
// table as every prep slot that placed a Round reads it after the last
// Round: one row per slot, each NumAtoms long. Exported to the package's
// external tests only.
var RunTable = runTable

func runTable(d *atom.DAG, s *schedule.Schedule, cfg Config) (Report, [][]int, error) {
	r, release, err := newRunner(d, s, cfg)
	if err != nil {
		return Report{}, nil, err
	}
	defer release()
	if err := r.runPipelined(); err != nil {
		return Report{}, nil, err
	}
	tables := make([][]int, min(len(r.slots), s.NumRounds()))
	for i := range tables {
		tables[i] = make([]int, d.NumAtoms())
		for id := range tables[i] {
			tables[i][id] = r.slots[i].placed.Engine(id)
		}
	}
	return r.report(), tables, nil
}
