package sim

import (
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// arena is the per-Run scratch state of the simulator's hot loop. All
// link and engine state lives in dense slices indexed by the mesh's link
// IDs and engine indices, and is invalidated by bumping an epoch stamp
// instead of clearing or reallocating, so simulating a Round's flows
// allocates nothing after the first Round.
//
// Two stamp counters partition the state by lifetime:
//
//   - roundStamp guards state that resets every Round: linkFree (when a
//     link finishes its last tensor), ready (per-engine NoC arrival) and
//     dramReady (per-engine DRAM arrival).
//   - groupStamp guards state that resets every multicast group:
//     linkStart (when a link begins forwarding the group's tensor).
//
// A slot is live only when its stamp equals the current counter; stale
// slots read as absent. Both counters are monotonically increasing
// int64s, so stamps never collide across Rounds or groups. Determinism
// is preserved by construction: flows are sorted by a total order
// (Src, |key|, key, Dst) before link claiming, which is exactly the
// order the map-based reference path iterates in.
type arena struct {
	mesh *noc.Mesh

	// Link state, indexed by link ID (see noc.RouteIDs).
	linkFree   []int64
	freeStamp  []int64
	linkStart  []int64
	startStamp []int64

	// Engine state, indexed by engine.
	ready      []int64
	readyStamp []int64
	dramReady  []int64
	dramStamp  []int64

	roundStamp int64
	groupStamp int64

	// Stamp values when the current run acquired this arena — pooled
	// arenas keep counting monotonically, so per-run epoch metrics are
	// the deltas against these.
	runRound0 int64
	runGroup0 int64

	// linkTraffic, when non-nil, accumulates bytes per link ID across the
	// whole Run (metrics scratch owned by simMetrics; nil when disabled).
	linkTraffic []int64
}

// keyedFlow is one entry of the deterministic link-claim order: the
// flow's index plus its precomputed sort key. okey encodes (|key|, key)
// in one word — |key|<<1 with the low bit set for positive keys — so the
// sort comparator is three integer compares instead of recomputing
// absolute values per comparison. The element is 24 bytes (vs 40 for a
// key + embedded Flow), which also cuts swap traffic during the sort.
type keyedFlow struct {
	okey     uint64
	src, dst int32
	idx      int32
}

// newArena sizes the scratch for the mesh.
func newArena(mesh *noc.Mesh) *arena {
	nl := mesh.NumLinks()
	ne := mesh.Engines()
	return &arena{
		mesh:       mesh,
		linkFree:   make([]int64, nl),
		freeStamp:  make([]int64, nl),
		linkStart:  make([]int64, nl),
		startStamp: make([]int64, nl),
		ready:      make([]int64, ne),
		readyStamp: make([]int64, ne),
		dramReady:  make([]int64, ne),
		dramStamp:  make([]int64, ne),
	}
}

// reset re-targets a pooled arena at a new mesh. The pool key guarantees
// the new mesh has the same link and engine counts, so the dense slices
// keep their sizes, and the epoch stamps are monotonic — stale slots from
// the previous run read as absent without any clearing.
func (a *arena) reset(mesh *noc.Mesh) {
	a.mesh = mesh
	a.linkTraffic = nil
	a.runRound0 = a.roundStamp
	a.runGroup0 = a.groupStamp
}

// beginRound invalidates all per-Round state.
func (a *arena) beginRound() { a.roundStamp++ }

// setDRAMReady records engine e's DRAM arrival time for this Round.
func (a *arena) setDRAMReady(e int, at int64) {
	a.dramReady[e] = at
	a.dramStamp[e] = a.roundStamp
}

// getDRAMReady returns engine e's DRAM arrival this Round, if any.
func (a *arena) getDRAMReady(e int) (int64, bool) {
	return a.dramReady[e], a.dramStamp[e] == a.roundStamp
}

// setNoCReady records engine e's NoC arrival time (reference-path shim).
func (a *arena) setNoCReady(e int, at int64) {
	a.ready[e] = at
	a.readyStamp[e] = a.roundStamp
}

// getNoCReady returns engine e's NoC arrival this Round, if any.
func (a *arena) getNoCReady(e int) (int64, bool) {
	return a.ready[e], a.readyStamp[e] == a.roundStamp
}

// flowSorter holds the reusable scratch of sortFlows: the keyed order,
// an unsorted staging buffer and the per-source bucket offsets of the
// counting pass.
type flowSorter struct {
	kf  []keyedFlow
	tmp []keyedFlow
	off []int32
}

// cmpKeyed orders two same-source keyed flows: ascending (|key|, key)
// via the okey encoding, then Dst.
func cmpKeyed(x, y keyedFlow) int {
	if x.okey != y.okey {
		if x.okey < y.okey {
			return -1
		}
		return 1
	}
	return int(x.dst - y.dst)
}

// sort builds the deterministic link-claim order of a Round's flows:
// ascending (Src, |key|, key, Dst), exactly the order the map-based
// reference path iterates in. Sources are engine indices, so flows are
// first scattered into per-source buckets by one counting pass, and
// only each bucket is comparison-sorted (by the remaining two-field
// key) — many small cache-resident sorts instead of one large one. The
// order is a pure function of the flow list, so the pipeline runs this
// in the prep stage.
func (fs *flowSorter) sort(flows []buffer.Flow) []keyedFlow {
	tmp := fs.tmp[:0]
	maxSrc := int32(-1)
	for i, f := range flows {
		k := f.GroupKey()
		ok := uint64(k)<<1 | 1
		if k < 0 {
			ok = uint64(-k) << 1
		}
		src := int32(f.Src)
		if src > maxSrc {
			maxSrc = src
		}
		tmp = append(tmp, keyedFlow{okey: ok, src: src, dst: int32(f.Dst), idx: int32(i)})
	}
	fs.tmp = tmp
	if len(tmp) == 0 {
		return fs.kf[:0]
	}

	nb := int(maxSrc) + 2
	if cap(fs.off) < nb {
		fs.off = make([]int32, nb)
	}
	off := fs.off[:nb]
	for i := range off {
		off[i] = 0
	}
	for _, e := range tmp {
		off[e.src+1]++
	}
	for s := 1; s < nb; s++ {
		off[s] += off[s-1]
	}
	if cap(fs.kf) < len(tmp) {
		fs.kf = make([]keyedFlow, len(tmp))
	}
	kf := fs.kf[:len(tmp)]
	for _, e := range tmp {
		kf[off[e.src]] = e
		off[e.src]++
	}
	// After the scatter, off[s] is the END of bucket s.
	lo := int32(0)
	for s := 0; s <= int(maxSrc); s++ {
		hi := off[s]
		if hi-lo > 1 {
			slices.SortFunc(kf[lo:hi], cmpKeyed)
		}
		lo = hi
	}
	return kf
}

// walkFlows is the dense NoC contention model (its map-based executable
// specification, simulateFlowsReference, lives in the tests): it
// serializes the Round's flows on shared links in the order kf (from
// sortFlows) and records per-destination arrival times in a.ready,
// returning the Round's byte-hop volume. beginRound must have been
// called.
func (a *arena) walkFlows(flows []buffer.Flow, kf []keyedFlow, start int64) int64 {
	hop := a.mesh.HopCycles
	linkBytes := int64(a.mesh.LinkBytes)
	var byteHops int64
	for gi := 0; gi < len(kf); {
		gj := gi + 1
		for gj < len(kf) && kf[gj].src == kf[gi].src && kf[gj].okey == kf[gi].okey {
			gj++
		}
		group := kf[gi:gj]
		bytes := flows[group[0].idx].Bytes
		for _, e := range group[1:] {
			if b := flows[e.idx].Bytes; b > bytes {
				bytes = b
			}
		}
		ser := (bytes + linkBytes - 1) / linkBytes
		// Walk each destination's route; a link is claimed once per tree
		// (switch-level replication). A link cannot start forwarding
		// before the stream's head reaches it from the upstream link
		// (cut-through), nor while a previous tensor occupies it.
		a.groupStamp++
		treeLinks := int64(0)
		for _, e := range group {
			head := start
			lastStart := start
			route := a.mesh.RouteIDs(int(e.src), int(e.dst))
			for _, id := range route {
				var s int64
				if a.startStamp[id] == a.groupStamp {
					s = a.linkStart[id]
				} else {
					s = head
					if a.freeStamp[id] == a.roundStamp && a.linkFree[id] > s {
						s = a.linkFree[id]
					}
					a.linkStart[id] = s
					a.startStamp[id] = a.groupStamp
					a.linkFree[id] = s + ser
					a.freeStamp[id] = a.roundStamp
					treeLinks++
					if a.linkTraffic != nil {
						a.linkTraffic[id] += bytes
					}
				}
				head = s + hop
				lastStart = s
			}
			arrive := start
			if len(route) > 0 {
				arrive = lastStart + ser + hop
			}
			if r, ok := a.getNoCReady(int(e.dst)); !ok || arrive > r {
				a.setNoCReady(int(e.dst), arrive)
			}
		}
		byteHops += bytes * treeLinks
		gi = gj
	}
	return byteHops
}
