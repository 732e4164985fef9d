package noc

import (
	"fmt"
	"time"
)

// routeTable is the dense all-pairs routing state of a Mesh, built lazily
// once per mesh (mesh, torus and H-tree alike) and shared by every
// consumer afterwards. Directed links get stable integer IDs 0..L-1 in
// the order they are first traversed when walking routes (i-major, then
// j), so the table — and everything derived from it — is deterministic.
//
// The table is what makes the simulator and mapper hot paths allocation
// free: routes become shared []int32 slices instead of per-call []Link
// garbage, link state becomes ID-indexed slices instead of map[Link]
// hashing, and hop distances become one array load.
type routeTable struct {
	n        int     // engines (table side)
	numLinks int     // distinct directed links across all routes
	linkOf   []Link  // link ID -> directed link
	hops     []int32 // n*n minimal hop counts (hops[i*n+j])
	off      []int32 // n*n+1 offsets into ids, route (i,j) = ids[off[i*n+j]:off[i*n+j+1]]
	ids      []int32 // all routes concatenated as link IDs
}

// table returns the mesh's route table, building it on first use. Safe
// for concurrent use: parallel sweeps share one mesh across sim runs.
func (m *Mesh) table() *routeTable {
	m.routeOnce.Do(m.buildTable)
	return m.routes
}

// maxOutLinks bounds a node's outgoing links: four neighbours on the mesh
// and the torus, four children and a parent at an H-tree switch.
const maxOutLinks = 5

// buildTable walks every route once, into one reused buffer, and numbers
// each directed link on first traversal. The IDs found so far sit in
// per-node rows of maxOutLinks slots, so a lookup scans one short row.
// Every array is allocated at its final size: the hop counts, summed,
// size the route list before the walk.
func (m *Mesh) buildTable() {
	start := time.Now()
	defer func() { m.buildTime = time.Since(start) }()
	n := m.Engines()
	rt := &routeTable{
		n:    n,
		hops: make([]int32, n*n),
		off:  make([]int32, n*n+1),
	}
	total, longest := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h := m.hopsDirect(i, j)
			rt.hops[i*n+j] = int32(h)
			total, longest = total+h, max(longest, h)
		}
	}
	nodes := m.nodes()
	rt.ids = make([]int32, 0, total)
	rt.linkOf = make([]Link, 0, nodes*maxOutLinks)
	out := make([]int32, nodes*maxOutLinks) // link ID + 1 per slot, 0 when free
	path := make([]Link, 0, longest)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			path = m.AppendPath(path[:0], i, j)
			if h := int(rt.hops[i*n+j]); len(path) != h {
				panic(fmt.Sprintf("noc: route %d->%d has %d links, want %d hops",
					i, j, len(path), h))
			}
			for _, l := range path {
				rt.ids = append(rt.ids, rt.linkID(out, l))
			}
			rt.off[i*n+j+1] = int32(len(rt.ids))
		}
	}
	rt.numLinks = len(rt.linkOf)
	if err := rt.checkPrefixClosed(); err != nil {
		panic(err)
	}
	m.routes = rt
}

// linkID returns l's ID, numbering it next if it is new; out holds each
// node's row of known outgoing link IDs.
func (rt *routeTable) linkID(out []int32, l Link) int32 {
	row := out[l.From*maxOutLinks : (l.From+1)*maxOutLinks]
	for k, v := range row {
		if v == 0 {
			id := int32(len(rt.linkOf))
			rt.linkOf = append(rt.linkOf, l)
			row[k] = id + 1
			return id
		}
		if rt.linkOf[v-1].To == l.To {
			return v - 1
		}
	}
	panic(fmt.Sprintf("noc: node %d has more than %d outgoing links", l.From, maxOutLinks))
}

// checkPrefixClosed verifies that the routes out of each source form a
// tree: every link has one predecessor (the link before it, or none for a
// first hop) across all of them. Then the links any set of a source's
// routes traverses are closed under route prefixes, which lets the
// simulator's multicast walk skip the prefix a group already claimed.
// XY, torus and H-tree routing all satisfy it.
func (rt *routeTable) checkPrefixClosed() error {
	pred := make([]int32, rt.numLinks)
	seen := make([]int32, rt.numLinks) // source+1 that recorded pred
	for i := 0; i < rt.n; i++ {
		for j := 0; j < rt.n; j++ {
			k := i*rt.n + j
			prev := int32(-1)
			for _, id := range rt.ids[rt.off[k]:rt.off[k+1]] {
				if seen[id] != int32(i+1) {
					pred[id], seen[id] = prev, int32(i+1)
				} else if pred[id] != prev {
					return fmt.Errorf("noc: routes from %d reach link %v from two predecessors (route to %d)",
						i, rt.linkOf[id], j)
				}
				prev = id
			}
		}
	}
	return nil
}

// NumLinks returns the number of distinct directed links any route on the
// mesh traverses — the index space of RoutesFrom's link IDs and link state.
func (m *Mesh) NumLinks() int { return m.table().numLinks }

// RouteBuildTime returns how long the all-pairs route table took to
// build, forcing the build if it has not happened yet. The one-time cost
// is the quantity the metrics layer reports as noc_route_build_seconds.
func (m *Mesh) RouteBuildTime() time.Duration {
	m.table()
	return m.buildTime
}

// RoutesFrom returns every route out of engine i as link IDs into
// 0..NumLinks()-1: the route from i to j is ids[off[j]:off[j+1]], the
// table-backed counterpart of AppendPath. Both slices alias the route
// table: callers must not modify them.
func (m *Mesh) RoutesFrom(i int) (off, ids []int32) {
	rt := m.table()
	return rt.off[i*rt.n : (i+1)*rt.n+1], rt.ids
}

// HopsRow returns the minimal hop counts from engine i to every engine:
// row i of D(i,j) in the paper's TransferCost (Manhattan distance on the
// mesh, wrap-aware on the torus, tree distance on the H-tree). The slice
// aliases the route table: callers must not modify it.
func (m *Mesh) HopsRow(i int) []int32 {
	rt := m.table()
	return rt.hops[i*rt.n : (i+1)*rt.n]
}
