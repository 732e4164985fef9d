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
//   - roundStamp guards state that resets every Round: a link's free
//     time (when it finishes its last tensor), ready (per-engine NoC
//     arrival) and dramReady (per-engine DRAM arrival).
//   - groupStamp guards state that resets every multicast group: a
//     link's start time (when it begins forwarding the group's tensor).
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
	links []linkState

	// Engine state, indexed by engine.
	ready      []int64
	readyStamp []int64
	dramReady  []int64
	dramStamp  []int64

	roundStamp int64
	groupStamp int64

	// sorter orders each Round's flows for walkFlows.
	sorter flowSorter

	// Stamp values when the current run acquired this arena — pooled
	// arenas keep counting monotonically, so per-run epoch metrics are
	// the deltas against these.
	runRound0 int64
	runGroup0 int64

	// linkTraffic, when non-nil, accumulates bytes per link ID across the
	// whole Run (metrics scratch owned by simMetrics; nil when disabled).
	linkTraffic []int64
}

// linkState is one link's timing state, kept together so a route step
// touches one cache line.
type linkState struct {
	free       int64 // when the link finishes its last tensor (roundStamp)
	freeStamp  int64
	start      int64 // when it begins forwarding the group's tensor (groupStamp)
	startStamp int64
}

// newArena sizes the scratch for the mesh.
func newArena(mesh *noc.Mesh) *arena {
	nl := mesh.NumLinks()
	ne := mesh.Engines()
	return &arena{
		mesh:       mesh,
		links:      make([]linkState, nl),
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

// flowSorter holds the reusable scratch of sort: the packed keys, the
// multicast groups with their hash index, and the counting-pass buffers.
type flowSorter struct {
	keys   []uint64
	groups []flowGroup // (Src, okey) groups in first-seen order
	tab    []int32     // open-addressing (Src, okey) -> group+1, 0 = empty
	gid    []int32     // flow -> group
	rank   []uint64    // okey<<gBits | group, in (Src, okey) order
	byDst  []int32     // flow indices in (Dst, index) order
	srcOff []int32     // counting-pass offsets per Src (of groups)
	dstOff []int32     // counting-pass offsets per Dst (of flows)
}

// flowGroup is one (Src, okey) multicast group of a Round: its flow count,
// then the next free position of its run in the sorted keys.
type flowGroup struct {
	okey uint64
	src  int
	next int32
}

// absKey returns |k| as an unsigned magnitude (exact for every int64).
func absKey(k int64) uint64 {
	if k < 0 {
		return uint64(-k)
	}
	return uint64(k)
}

// okeyOf encodes a GroupKey as |key|<<1 with the low bit set for positive
// keys, so ascending okeys are ascending (|key|, key).
func okeyOf(k int64) uint64 {
	okey := absKey(k) << 1
	if k > 0 {
		okey |= 1
	}
	return okey
}

// sort builds the deterministic link-claim order of a Round's flows:
// ascending (Src, |key|, key, Dst), exactly the order the map-based
// reference path iterates in, with ties in flow order. A Round has far
// fewer multicast groups — equal (Src, key) — than flows, so no flow is
// compared: the groups are found by hashing and only they are sorted
// (by a counting pass over Src, then each source's few groups by key),
// each group gets its run of the output, and one counting pass by Dst
// (engine indices) feeds the flows in (Dst, index) order into their
// runs. The order is a pure function of the flow list. It fails, without
// sorting, on a negative engine index or when the packed fields would not
// fit in 64 bits.
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
	n := len(flows)
	idxBits := uint(bits.Len(uint(n - 1)))
	okShift := idxBits + uint(bits.Len(uint(maxDst)))
	if okShift+uint(bits.Len64(maxAbs))+1 > 64 {
		return flowOrder{}, fmt.Errorf("sim: %d flows to engines <= %d with |group key| <= %d do not pack into 64 bits",
			n, maxDst, maxAbs)
	}

	// Group every flow (the table keeps its size from Round to Round, at
	// most a quarter full, which keeps probes short) and count the flows
	// per Dst.
	if len(fs.tab) == 0 {
		fs.tab = make([]int32, 64)
	}
	tab := fs.tab
	clear(tab)
	mask := uint64(len(tab) - 1)
	gid := growInt32s(&fs.gid, n)
	groups := fs.groups[:0]
	dstOff := growInt32s(&fs.dstOff, maxDst+2)
	clear(dstOff)
	for i := range flows {
		f := &flows[i]
		dstOff[f.Dst+1]++
		okey := okeyOf(f.GroupKey())
		for j := flowGroupHash(okey, f.Src) & mask; ; j = (j + 1) & mask {
			g := tab[j] - 1
			if g < 0 {
				if 4*(len(groups)+1) > len(tab) {
					tab = fs.growTable(groups)
					mask = uint64(len(tab) - 1)
					j = flowGroupHash(okey, f.Src)&mask - 1 // re-probe in the new table
					continue
				}
				g = int32(len(groups))
				tab[j] = g + 1
				groups = append(groups, flowGroup{okey: okey, src: f.Src})
			} else if groups[g].okey != okey || groups[g].src != f.Src {
				continue
			}
			groups[g].next++
			gid[i] = g
			break
		}
	}
	fs.groups = groups

	// Order the groups by (Src, okey) and give each its run. A group index
	// packs below its okey: okShift already reserves idxBits >= gBits.
	gBits := uint(bits.Len(uint(len(groups) - 1)))
	srcOff := growInt32s(&fs.srcOff, maxSrc+2)
	clear(srcOff)
	for _, g := range groups {
		srcOff[g.src+1]++
	}
	for s := 1; s < len(srcOff); s++ {
		srcOff[s] += srcOff[s-1]
	}
	rank := growUint64s(&fs.rank, len(groups))
	for g, gr := range groups {
		rank[srcOff[gr.src]] = gr.okey<<gBits | uint64(g)
		srcOff[gr.src]++
	}
	lo := int32(0)
	for _, hi := range srcOff[:maxSrc+1] {
		if hi-lo > 1 {
			slices.Sort(rank[lo:hi])
		}
		lo = hi
	}
	at := int32(0)
	for _, r := range rank {
		g := &groups[r&(1<<gBits-1)]
		at, g.next = at+g.next, at
	}

	// Flows in (Dst, index) order.
	for d := 1; d < len(dstOff); d++ {
		dstOff[d] += dstOff[d-1]
	}
	byDst := growInt32s(&fs.byDst, n)
	for i := range flows {
		d := flows[i].Dst
		byDst[dstOff[d]] = int32(i)
		dstOff[d]++
	}

	if cap(keys) < n {
		keys = make([]uint64, n)
	}
	keys = keys[:n]
	for _, i := range byDst {
		g := &groups[gid[i]]
		keys[g.next] = g.okey<<okShift | uint64(flows[i].Dst)<<idxBits | uint64(i)
		g.next++
	}
	fs.keys = keys
	return flowOrder{keys: keys, okShift: okShift, idxMask: 1<<idxBits - 1}, nil
}

// growTable doubles the group table and re-inserts the groups.
func (fs *flowSorter) growTable(groups []flowGroup) []int32 {
	tab := make([]int32, 2*len(fs.tab))
	mask := uint64(len(tab) - 1)
	for g, gr := range groups {
		j := flowGroupHash(gr.okey, gr.src) & mask
		for tab[j] != 0 {
			j = (j + 1) & mask
		}
		tab[j] = int32(g) + 1
	}
	fs.tab = tab
	return tab
}

// flowGroupHash mixes a group's (okey, Src) into a table index source.
func flowGroupHash(okey uint64, src int) uint64 {
	h := (okey ^ uint64(src)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// growUint64s returns *buf resized to n, reusing its capacity.
func growUint64s(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growInt32s returns *buf resized to n, reusing its capacity.
func growInt32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
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
		gs, rs := a.groupStamp, a.roundStamp
		off, ids := a.mesh.RoutesFrom(src)
		treeLinks := int64(0)
		for _, k := range keys[gi:gj] {
			dst := flows[k&fo.idxMask].Dst
			head := start
			lastStart := start
			route := ids[off[dst]:off[dst+1]]
			for _, id := range route {
				l := &a.links[id]
				var s int64
				if l.startStamp == gs {
					s = l.start
				} else {
					s = head
					if l.freeStamp == rs && l.free > s {
						s = l.free
					}
					l.start, l.startStamp = s, gs
					l.free, l.freeStamp = s+ser, rs
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
