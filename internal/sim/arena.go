package sim

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// arena is the per-Run scratch state of the simulator's hot loop. All
// link and engine state lives in dense slices indexed by the mesh's link
// IDs and engine indices, so timing a Round's multicast groups allocates
// nothing after the first Round. The state has two lifetimes:
//
//   - Round state is cleared by beginRound at every Round barrier: a
//     link's free time (when it finishes its last tensor), ready
//     (per-engine NoC arrival) and dramReady (per-engine DRAM arrival).
//     Zero means nothing arrived this Round; every reader compares
//     against a time at or after the Round start, so it cannot tell zero
//     from an earlier arrival. Clearing costs a few KB per Round (224
//     links and 64 engines on the 8x8 mesh).
//   - Multicast-group state — a link's start time (when it begins
//     forwarding the group's tensor) — is guarded by groupStamp: a slot
//     is live only when its stamp equals the counter, which only grows,
//     so the NoC walk never clears per group.
//
// Determinism is preserved by construction: a Round's multicast groups
// are ordered by the total order (Src, |Key|, Key) before link claiming,
// which is exactly the order the map-based reference path iterates in.
type arena struct {
	mesh *noc.Mesh

	// Link state, indexed by link ID (see noc.RoutesFrom).
	free  []int64 // Round state: when the link finishes its last tensor
	links []linkState

	// Engine state, indexed by engine (Round state).
	ready     []int64
	dramReady []int64

	groupStamp int64

	// Scratch of orderGroups: the link-claim order and its counting pass.
	order  []int32
	srcOff []int32

	// linkTraffic, when non-nil, accumulates bytes per link ID across the
	// whole Run (metrics scratch owned by simMetrics; nil when disabled).
	linkTraffic []int64
}

// linkState is a link's multicast-group state: when it begins forwarding
// the group's tensor, live while startStamp equals groupStamp.
type linkState struct {
	start      int64
	startStamp int64
}

// newArena sizes the scratch for the mesh.
func newArena(mesh *noc.Mesh) *arena {
	nl := mesh.NumLinks()
	ne := mesh.Engines()
	return &arena{
		mesh:      mesh,
		free:      make([]int64, nl),
		links:     make([]linkState, nl),
		ready:     make([]int64, ne),
		dramReady: make([]int64, ne),
	}
}

// reset re-targets a pooled arena at a new mesh. The pool key guarantees
// the new mesh has the same link and engine counts, so the dense slices
// keep their sizes; beginRound clears the Round state, and the group
// stamps are monotonic, so stale slots from the previous run read as
// absent.
func (a *arena) reset(mesh *noc.Mesh) {
	a.mesh = mesh
	a.linkTraffic = nil
}

// beginRound clears all per-Round state at the Round barrier.
func (a *arena) beginRound() {
	clear(a.free)
	clear(a.ready)
	clear(a.dramReady)
}

// orderGroups returns the Round's multicast groups in link-claim order:
// ascending (Src, |Key|, Key), the order the map-based reference path
// iterates in. A counting pass over Src places the groups by source, and
// each source's few groups are sorted by key. A Round has one group per
// (Src, Key), so the order is total and a pure function of the groups.
func (a *arena) orderGroups(groups []buffer.Group) []int32 {
	n := a.mesh.Engines()
	srcOff := growInt32s(&a.srcOff, n+1)
	clear(srcOff)
	for i := range groups {
		srcOff[groups[i].Src+1]++
	}
	for s := 1; s <= n; s++ {
		srcOff[s] += srcOff[s-1]
	}
	order := growInt32s(&a.order, len(groups))
	for i := range groups {
		s := groups[i].Src
		order[srcOff[s]] = int32(i)
		srcOff[s]++
	}
	lo := int32(0)
	for _, hi := range srcOff[:n] { // srcOff[s] now ends source s's run
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(x, y int32) int {
				kx, ky := groups[x].Key, groups[y].Key
				return cmp.Or(cmp.Compare(absKey(kx), absKey(ky)), cmp.Compare(kx, ky))
			})
		}
		lo = hi
	}
	return order
}

// absKey returns |k| as an unsigned magnitude (exact for every int64).
func absKey(k int64) uint64 {
	if k < 0 {
		return uint64(-k)
	}
	return uint64(k)
}

// growInt32s returns *buf resized to n, reusing its capacity.
func growInt32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// walkGroups is the dense NoC contention model (its map-based executable
// specification, simulateFlowsReference, lives in the tests): it
// serializes the Round's multicast groups on shared links in the order
// given (from orderGroups), records per-destination arrival times in
// a.ready, and returns the Round's byte-hop volume and the number of tree
// links its groups claimed. beginRound must have been called.
func (a *arena) walkGroups(io *buffer.RoundIO, order []int32, start int64) (byteHops, claims int64) {
	hop := a.mesh.HopCycles
	linkBytes := int64(a.mesh.LinkBytes)
	for _, g := range order {
		src, bytes := io.Groups[g].Src, io.Groups[g].Bytes
		ser := (bytes + linkBytes - 1) / linkBytes
		// Walk each destination's route; a link is claimed once per tree
		// (switch-level replication). A link cannot start forwarding
		// before the stream's head reaches it from the upstream link
		// (cut-through), nor while a previous tensor occupies it. Routes
		// from one source form a tree (noc checks it when building the
		// route table), so the links this group already claimed are a
		// prefix of the route: find its end from the back and claim only
		// the suffix. Each link's start depends only on its parent link's
		// start and its own free time, so the destination order cannot
		// change a value.
		a.groupStamp++
		gs := a.groupStamp
		off, ids := a.mesh.RoutesFrom(src)
		treeLinks := int64(0)
		for wi, word := range io.DestSet(int(g)) {
			for ; word != 0; word &= word - 1 {
				dst := wi<<6 | bits.TrailingZeros64(word)
				route := ids[off[dst]:off[dst+1]]
				claimed := 0 // nothing to scan for until the group claims a link
				if treeLinks > 0 {
					claimed = len(route)
					for claimed > 0 && a.links[route[claimed-1]].startStamp != gs {
						claimed--
					}
				}
				head, lastStart := start, start
				if claimed > 0 {
					lastStart = a.links[route[claimed-1]].start
					head = lastStart + hop
				}
				for _, id := range route[claimed:] {
					s := max(head, a.free[id])
					a.links[id] = linkState{start: s, startStamp: gs}
					a.free[id] = s + ser
					treeLinks++
					if a.linkTraffic != nil {
						a.linkTraffic[id] += bytes
					}
					head = s + hop
					lastStart = s
				}
				arrive := start
				if len(route) > 0 {
					arrive = lastStart + ser + hop
				}
				a.ready[dst] = max(a.ready[dst], arrive)
			}
		}
		byteHops += bytes * treeLinks
		claims += treeLinks
	}
	return byteHops, claims
}
