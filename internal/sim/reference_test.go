package sim

import (
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// simulateFlows sorts and walks in one call — the single-stage entry
// point of the flow tests; the pipeline calls flowSorter.sort and
// walkFlows from their respective stages.
func (a *arena) simulateFlows(flows []buffer.Flow, start int64) (int64, error) {
	var fs flowSorter
	fo, err := fs.sort(flows)
	if err != nil {
		return 0, err
	}
	return a.walkFlows(flows, fo, start), nil
}

// simulateFlowsReference serializes the Round's flows on shared links
// (deterministic order) and returns per-destination-engine arrival times
// plus the Round's byte-hop volume. Unicast flows each occupy every link
// of their XY route; flows sharing (Src, Tag != 0) carry one tensor to
// many engines and occupy the union of their routes once (switch-level
// replication, as in weight broadcast).
//
// This is the executable specification of the NoC contention model; the
// production path is arena.walkFlows, which replays the same walk over
// link-ID-indexed slices without allocating.
func simulateFlowsReference(mesh *noc.Mesh, flows []buffer.Flow, start int64) (map[int]int64, int64) {
	type mkey struct {
		src int
		tag int64
	}
	groups := make(map[mkey][]buffer.Flow)
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
	var byteHops int64
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
			path := mesh.Path(f.Src, f.Dst)
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
	}
	return ready, byteHops
}

// RunSerial is the reference the pipelined Round loop is tested against:
// sim.Run with prep and time executed back to back on the calling
// goroutine. Exported to the package's external tests only.
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
		if err := r.time(slot); err != nil {
			return Report{}, err
		}
	}
	return r.report(), nil
}
