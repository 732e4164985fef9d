// Package noc models the on-chip interconnect of the scalable accelerator:
// a 2D-mesh static network in the style of the TILE64 STN (paper Sec. IV-C),
// with single-cycle hop latency between adjacent engines, full-crossbar
// switches, and dimension-ordered (X-then-Y) routing. Credit-based flow
// control is approximated by per-link serialization: flows crossing the
// same directed link within a scheduling Round are serialized on it.
package noc

import (
	"fmt"
	"sync"
	"time"
)

// Mesh is a W x H grid of engines. Engine e sits at (e % W, e / W).
// The zero kind is the 2D mesh; NewTorus and NewHTree select the other
// topologies while keeping the same interface (see topology.go).
//
// Meshes must be built with NewMesh, NewTorus or NewHTree: every mesh
// lazily caches a dense all-pairs route table (see routes.go) keyed on
// its construction-time geometry, so W and H must not change afterwards.
// LinkBytes and HopCycles stay free to tune — they price routes but do
// not shape them.
type Mesh struct {
	W, H      int
	LinkBytes int   // bytes a link forwards per cycle (paper port: 8 B)
	HopCycles int64 // latency per hop (paper: 1)
	kind      Kind

	routeOnce sync.Once
	routes    *routeTable
	buildTime time.Duration // wall time of the one-time table build
}

// NewMesh builds a mesh; linkBytes is the per-cycle link bandwidth.
func NewMesh(w, h, linkBytes int) *Mesh {
	if w <= 0 || h <= 0 || linkBytes <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d link %d", w, h, linkBytes))
	}
	return &Mesh{W: w, H: h, LinkBytes: linkBytes, HopCycles: 1}
}

// Engines returns the number of engines on the mesh.
func (m *Mesh) Engines() int { return m.W * m.H }

// Coord returns the (x, y) position of engine e.
func (m *Mesh) Coord(e int) (x, y int) { return e % m.W, e / m.W }

// EngineAt returns the engine index at (x, y).
func (m *Mesh) EngineAt(x, y int) int { return y*m.W + x }

// hopsDirect computes the hop count arithmetically; buildTable checks the
// route walk against it, and tests use it as an independent reference.
func (m *Mesh) hopsDirect(i, j int) int {
	switch m.kind {
	case KindTorus:
		return m.hopsTorus(i, j)
	case KindHTree:
		return m.hopsHTree(i, j)
	}
	xi, yi := m.Coord(i)
	xj, yj := m.Coord(j)
	return abs(xi-xj) + abs(yi-yj)
}

// Link identifies a directed mesh link from engine From to adjacent
// engine To.
type Link struct{ From, To int }

// AppendPath appends to dst the route from i to j as a sequence of
// directed links (none when i == j): XY dimension-ordered on the mesh,
// shorter-way XY on the torus, up-over-down through switches on the
// H-tree. Walking many routes into one reused dst allocates nothing.
func (m *Mesh) AppendPath(dst []Link, i, j int) []Link {
	switch m.kind {
	case KindTorus:
		return m.appendTorus(dst, i, j)
	case KindHTree:
		return m.appendHTree(dst, i, j)
	}
	xi, yi := m.Coord(i)
	xj, yj := m.Coord(j)
	cur := i
	for x := xi; x != xj; {
		next := x + sign(xj-x)
		ne := m.EngineAt(next, yi)
		dst = append(dst, Link{From: cur, To: ne})
		cur, x = ne, next
	}
	for y := yi; y != yj; {
		next := y + sign(yj-y)
		ne := m.EngineAt(xj, next)
		dst = append(dst, Link{From: cur, To: ne})
		cur, y = ne, next
	}
	return dst
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func sign(a int) int {
	if a < 0 {
		return -1
	}
	return 1
}
