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

func (m *Mesh) buildTable() {
	start := time.Now()
	defer func() { m.buildTime = time.Since(start) }()
	n := m.Engines()
	rt := &routeTable{
		n:    n,
		hops: make([]int32, n*n),
		off:  make([]int32, n*n+1),
	}
	idOf := make(map[Link]int32)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			path := m.Path(i, j)
			if len(path) != m.hopsDirect(i, j) {
				panic(fmt.Sprintf("noc: route %d->%d has %d links, want %d hops",
					i, j, len(path), m.hopsDirect(i, j)))
			}
			rt.hops[i*n+j] = int32(len(path))
			for _, l := range path {
				id, ok := idOf[l]
				if !ok {
					id = int32(len(rt.linkOf))
					idOf[l] = id
					rt.linkOf = append(rt.linkOf, l)
				}
				rt.ids = append(rt.ids, id)
			}
			rt.off[i*n+j+1] = int32(len(rt.ids))
		}
	}
	rt.numLinks = len(rt.linkOf)
	m.routes = rt
}

// NumLinks returns the number of distinct directed links any route on the
// mesh traverses — the index space of RouteIDs and Traffic link state.
func (m *Mesh) NumLinks() int { return m.table().numLinks }

// RouteBuildTime returns how long the all-pairs route table took to
// build, forcing the build if it has not happened yet. The one-time cost
// is the quantity the metrics layer reports as noc_route_build_seconds.
func (m *Mesh) RouteBuildTime() time.Duration {
	m.table()
	return m.buildTime
}

// RouteIDs returns the route from i to j as link IDs into 0..NumLinks()-1.
// The slice aliases the shared route table: callers must not modify it.
// It is the allocation-free counterpart of Path.
func (m *Mesh) RouteIDs(i, j int) []int32 {
	rt := m.table()
	k := i*rt.n + j
	return rt.ids[rt.off[k]:rt.off[k+1]]
}

// RoutesFrom returns every route out of engine i: the route from i to j
// is ids[off[j]:off[j+1]]. Both slices alias the route table: callers
// must not modify them. Hot loops routing many flows from one source fetch
// them once instead of paying RouteIDs' table lookup per flow.
func (m *Mesh) RoutesFrom(i int) (off, ids []int32) {
	rt := m.table()
	return rt.off[i*rt.n : (i+1)*rt.n+1], rt.ids
}

// LinkByID returns the directed link with the given ID.
func (m *Mesh) LinkByID(id int32) Link { return m.table().linkOf[id] }

// HopsRow returns the dense hop-count row from engine i to every engine.
// The slice aliases the route table: callers must not modify it. Hot
// loops that price many destinations against one source fetch the row
// once instead of paying the table lookup per pair.
func (m *Mesh) HopsRow(i int) []int32 {
	rt := m.table()
	return rt.hops[i*rt.n : (i+1)*rt.n]
}
