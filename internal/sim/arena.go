package sim

import (
	"fmt"
	"math/bits"
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

// flowOrder is a Round's flows in deterministic link-claim order. Each
// flow is one packed key, from the high bits down
//
//	okey | dst | idx
//
// where okey encodes (|key|, key) of the flow's GroupKey as |key|<<1 with
// the low bit set for positive keys, dst is the destination engine and
// idx the flow's index. Field widths come from the Round's own maxima,
// so ascending keys within one source are ascending (|key|, key, Dst),
// with ties in flow order.
type flowOrder struct {
	keys    []uint64
	okShift uint   // okey = key >> okShift
	idxMask uint64 // flow index = key & idxMask
}

// flowSorter holds the reusable scratch of sort: the packed keys and the
// per-source bucket offsets of the counting pass.
type flowSorter struct {
	keys []uint64
	off  []int32
}

// absKey returns |k| as an unsigned magnitude (exact for every int64).
func absKey(k int64) uint64 {
	if k < 0 {
		return uint64(-k)
	}
	return uint64(k)
}

// sort builds the deterministic link-claim order of a Round's flows:
// ascending (Src, |key|, key, Dst), exactly the order the map-based
// reference path iterates in. Sources are engine indices, so flows are
// first scattered into per-source buckets by one counting pass, packing
// each into its key on the way, and only each bucket is sorted — many
// small cache-resident integer sorts instead of one large comparison
// sort. The order is a pure function of the flow list, so the pipeline
// runs this in the prep stage. It fails, without sorting, on a negative
// engine index or when the packed fields would not fit in 64 bits.
func (fs *flowSorter) sort(flows []buffer.Flow) (flowOrder, error) {
	keys := fs.keys[:0]
	if len(flows) == 0 {
		return flowOrder{keys: keys}, nil
	}
	var maxSrc, maxDst int
	var maxAbs uint64
	for _, f := range flows {
		if f.Src < 0 || f.Dst < 0 {
			return flowOrder{}, fmt.Errorf("sim: flow %d->%d has a negative engine", f.Src, f.Dst)
		}
		maxSrc, maxDst = max(maxSrc, f.Src), max(maxDst, f.Dst)
		maxAbs = max(maxAbs, absKey(f.GroupKey()))
	}
	idxBits := uint(bits.Len(uint(len(flows) - 1)))
	okShift := idxBits + uint(bits.Len(uint(maxDst)))
	if okShift+uint(bits.Len64(maxAbs))+1 > 64 {
		return flowOrder{}, fmt.Errorf("sim: %d flows to engines <= %d with |group key| <= %d do not pack into 64 bits",
			len(flows), maxDst, maxAbs)
	}

	nb := maxSrc + 2
	if cap(fs.off) < nb {
		fs.off = make([]int32, nb)
	}
	off := fs.off[:nb]
	clear(off)
	for _, f := range flows {
		off[f.Src+1]++
	}
	for s := 1; s < nb; s++ {
		off[s] += off[s-1]
	}
	if cap(keys) < len(flows) {
		keys = make([]uint64, len(flows))
	}
	keys = keys[:len(flows)]
	for i, f := range flows {
		k := f.GroupKey()
		okey := absKey(k) << 1
		if k > 0 {
			okey |= 1
		}
		keys[off[f.Src]] = okey<<okShift | uint64(f.Dst)<<idxBits | uint64(i)
		off[f.Src]++
	}
	fs.keys = keys
	// After the scatter, off[s] is the END of bucket s.
	lo := int32(0)
	for s := 0; s <= maxSrc; s++ {
		hi := off[s]
		if hi-lo > 1 {
			slices.Sort(keys[lo:hi])
		}
		lo = hi
	}
	return flowOrder{keys: keys, okShift: okShift, idxMask: 1<<idxBits - 1}, nil
}

// walkFlows is the dense NoC contention model (its map-based executable
// specification, simulateFlowsReference, lives in the tests): it
// serializes the Round's flows on shared links in the order fo (from
// flowSorter.sort) and records per-destination arrival times in a.ready,
// returning the Round's byte-hop volume. beginRound must have been
// called.
func (a *arena) walkFlows(flows []buffer.Flow, fo flowOrder, start int64) int64 {
	hop := a.mesh.HopCycles
	linkBytes := int64(a.mesh.LinkBytes)
	keys := fo.keys
	var byteHops int64
	for gi := 0; gi < len(keys); {
		// A multicast group is a run of equal (Src, okey).
		okey := keys[gi] >> fo.okShift
		src := flows[keys[gi]&fo.idxMask].Src
		bytes := flows[keys[gi]&fo.idxMask].Bytes
		gj := gi + 1
		for ; gj < len(keys) && keys[gj]>>fo.okShift == okey; gj++ {
			f := &flows[keys[gj]&fo.idxMask]
			if f.Src != src {
				break
			}
			bytes = max(bytes, f.Bytes)
		}
		ser := (bytes + linkBytes - 1) / linkBytes
		// Walk each destination's route; a link is claimed once per tree
		// (switch-level replication). A link cannot start forwarding
		// before the stream's head reaches it from the upstream link
		// (cut-through), nor while a previous tensor occupies it.
		a.groupStamp++
		treeLinks := int64(0)
		for _, k := range keys[gi:gj] {
			dst := flows[k&fo.idxMask].Dst
			head := start
			lastStart := start
			route := a.mesh.RouteIDs(src, dst)
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
			if r, ok := a.getNoCReady(dst); !ok || arrive > r {
				a.setNoCReady(dst, arrive)
			}
		}
		byteHops += bytes * treeLinks
		gi = gj
	}
	return byteHops
}
