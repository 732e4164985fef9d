package mapping

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// referencePlace is PlaceRound without any sharing: every atom's
// cost row is priced from its own dependency list, and the weight
// refinement asks weights about every (weighted atom, engine) pair and
// tries every atom pair. Only the layer-permutation search is the production code's,
// run on the table this reference builds.
func referencePlace(m *Mapper, res *Result, roundAtoms []int, locate Locator, weights WeightLocator) {
	groups := m.groupByLayer(roundAtoms)
	slots := 0
	for _, g := range groups {
		slots += len(g.atoms)
	}
	m.ctSlots = slots
	sizes := growInts(&m.sizes, len(groups))
	groupCost := growInt64s(&m.groupCost, len(groups)*slots)
	rows := map[int][]int64{}
	for gi, g := range groups {
		sizes[gi] = len(g.atoms)
		gc := groupCost[gi*slots : (gi+1)*slots]
		clear(gc)
		for k, id := range g.atoms {
			row := make([]int64, slots)
			deps, depBytes := depsOf(m.dag, id)
			for di, dep := range deps {
				if src := locate(dep); src >= 0 {
					for s := range row {
						row[s] += depBytes[di] * int64(m.mesh.HopsRow(src)[m.zigzag[s]])
					}
				}
			}
			rows[id] = row
			for b := 0; b+len(g.atoms) <= slots; b++ {
				gc[b] += row[b+k]
			}
		}
	}
	m.place(res, groups, nil)
	if weights == nil {
		return
	}
	slotOf := map[int]int{}
	for s, e := range m.zigzag[:slots] {
		slotOf[e] = s
	}
	for _, g := range groups {
		n := len(g.atoms)
		eng := make([]int, n)
		for j, id := range g.atoms {
			eng[j] = res.Engine(id)
		}
		cost := make([][]int64, n)
		for i, id := range g.atoms {
			cost[i] = make([]int64, n)
			for j, e := range eng {
				cost[i][j] = rows[id][slotOf[e]]
				if w := m.dag.WeightSlice(id); w >= 0 && !weights(e, w) {
					cost[i][j] += m.dag.Atoms[id].Task.WeightBytes() * dramHopEquivalent
				}
			}
		}
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		improved := true
		for pass := 0; improved && pass < 4; pass++ {
			improved = false
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					pi, pj := pos[i], pos[j]
					if cost[i][pj]+cost[j][pi] < cost[i][pi]+cost[j][pj] {
						pos[i], pos[j] = pj, pi
						improved = true
					}
				}
			}
		}
		for i, id := range g.atoms {
			res.engineOf[id] = int32(eng[pos[i]])
		}
	}
	res.ByteHops = 0
	for _, id := range res.placed {
		deps, depBytes := depsOf(m.dag, id)
		for di, dep := range deps {
			if src := locate(dep); src >= 0 {
				res.ByteHops += depBytes[di] * int64(m.mesh.HopsRow(src)[res.Engine(id)])
			}
		}
	}
}

// sharedRowsDAG draws a DAG for the shared-row property test: a layer of
// producers (each on a random engine, or off-chip) and consumer layers
// over two samples whose dependency lists are a mix of
//   - fresh random lists;
//   - exact copies of an earlier consumer's list;
//   - lists naming other producers on the same engines with the same
//     per-engine byte totals (equal signatures from different deps);
//   - empty signatures: no deps, or only off-chip ones.
//
// Consumers of a conv layer read one of three weight slices, so slices
// repeat within a group; one layer reads no weights at all.
func sharedRowsDAG(rng *rand.Rand, engines int) (*atom.DAG, []int, []int) {
	// drawn is an atom with its own dependency list and weight slice.
	type drawn struct {
		atom.Atom
		ID       int
		Slice    int32
		Deps     []int
		DepBytes []int64
	}
	var atoms []*drawn
	add := func(layer, sample int, kind graph.OpKind, tile int) *drawn {
		a := &drawn{ID: len(atoms), Slice: -1, Atom: atom.Atom{Layer: layer, Sample: sample,
			Task: engine.Task{Kind: kind, Hp: 1, Wp: 1, Ci: 8, Cop: 16, Kh: 3, Kw: 3}}}
		if kind == graph.OpConv {
			a.Slice = int32(3*layer + tile)
		}
		atoms = append(atoms, a)
		return a
	}
	home := make([]int, 2*engines) // producer -> engine, -1 = off-chip
	onEngine := map[int][]int{}
	for p := range home {
		add(0, 0, graph.OpConv, 0)
		home[p] = rng.Intn(engines+2) - 2
		if home[p] < -1 {
			home[p] = -1
		}
		if home[p] >= 0 {
			onEngine[home[p]] = append(onEngine[home[p]], p)
		}
	}
	var consumers []*drawn
	for layer := 1; layer <= 3; layer++ {
		kind := graph.OpConv
		if layer == 3 {
			kind = graph.OpEltwise
		}
		for sample := 0; sample < 2; sample++ {
			for k := 0; k < 2+rng.Intn(engines/2); k++ {
				a := add(layer, sample, kind, rng.Intn(3))
				switch mode := rng.Intn(6); {
				case mode == 0 || len(consumers) == 0:
					// Empty: no deps, or off-chip deps only.
					for _, p := range rng.Perm(len(home))[:rng.Intn(3)] {
						if home[p] < 0 {
							a.Deps, a.DepBytes = append(a.Deps, p), append(a.DepBytes, int64(1+rng.Intn(50)))
						}
					}
				case mode == 1:
					src := consumers[rng.Intn(len(consumers))]
					a.Deps, a.DepBytes = slices.Clone(src.Deps), slices.Clone(src.DepBytes)
				case mode == 2:
					// Same per-engine totals through other producers,
					// bytes split across two deps where possible.
					src := consumers[rng.Intn(len(consumers))]
					for di, dep := range src.Deps {
						b := src.DepBytes[di]
						e := home[dep]
						if e < 0 {
							continue
						}
						on := onEngine[e]
						p := on[rng.Intn(len(on))]
						if q := on[rng.Intn(len(on))]; q != p && b > 1 && !slices.Contains(a.Deps, q) && !slices.Contains(a.Deps, p) {
							h := b / 2
							a.Deps, a.DepBytes = append(a.Deps, p, q), append(a.DepBytes, h, b-h)
							continue
						}
						if !slices.Contains(a.Deps, p) {
							a.Deps, a.DepBytes = append(a.Deps, p), append(a.DepBytes, b)
						} else {
							a.DepBytes[slices.Index(a.Deps, p)] += b
						}
					}
				default:
					for _, p := range rng.Perm(len(home))[:rng.Intn(7)] {
						a.Deps, a.DepBytes = append(a.Deps, p), append(a.DepBytes, int64(1+rng.Intn(200)))
					}
				}
				consumers = append(consumers, a)
			}
		}
	}
	list := make([]atom.Atom, len(atoms))
	deps, bytes := make([][]int, len(atoms)), make([][]int64, len(atoms))
	wslice := make([]int32, len(atoms))
	for i, a := range atoms {
		list[i], deps[i], bytes[i], wslice[i] = a.Atom, a.Deps, a.DepBytes, a.Slice
	}
	d := atom.FromLists(nil, 2, list, deps, bytes, wslice)
	ids := make([]int, len(consumers))
	for i, a := range consumers {
		ids[i] = a.ID
	}
	return d, home, ids
}

// TestSharedRowsMatchPerAtomReference checks that sharing cost rows
// between atoms with equal signatures, and pricing the weight refinement
// per class, are pure speed-ups: on random Rounds over meshes, tori,
// H-trees and a mesh of more than 64 engines (a multi-word source
// bitset), PlaceRound places every atom where the per-atom
// reference does, with the same ByteHops and Perms.
func TestSharedRowsMatchPerAtomReference(t *testing.T) {
	for i, mesh := range []*noc.Mesh{
		noc.NewMesh(4, 4, 8), noc.NewTorus(4, 4, 8), noc.NewHTree(16, 8), noc.NewMesh(9, 8, 8),
	} {
		t.Run(fmt.Sprintf("%v-%d", mesh.Kind(), mesh.Engines()), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i)))
			var shared, empty, highSrc int // coverage of the cases that matter
			for trial := 0; trial < 40; trial++ {
				d, home, consumers := sharedRowsDAG(rng, mesh.Engines())
				locate := func(id int) int {
					if id < len(home) {
						return home[id]
					}
					return -1
				}
				salt := rng.Intn(1000)
				weights := func(e, w int) bool { return (w*7+e*13+salt)%3 == 0 }
				got, want := New(mesh, d), New(mesh, d)
				var g, r Result // reused across Rounds, as a prep slot's is
				for round := 0; round < 4; round++ {
					ids := slices.Clone(consumers)
					rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
					ids = ids[:min(len(ids), 1+rng.Intn(mesh.Engines()))]
					for _, w := range []WeightLocator{nil, weights} {
						got.PlaceRound(&g, ids, locate, w)
						shared += len(ids) - len(got.sigEnd)
						for r, end := range got.sigEnd {
							if r == 0 && end == 0 || r > 0 && end == got.sigEnd[r-1] {
								empty++
							}
						}
						for _, sb := range got.sigs {
							if sb.src >= 64 {
								highSrc++
							}
						}
						referencePlace(want, &r, ids, locate, w)
						if !slices.Equal(g.placed, r.placed) || g.ByteHops != r.ByteHops || g.Perms != r.Perms {
							t.Fatalf("trial %d round %d (weights %v): placed %v ByteHops %d Perms %d, reference %v %d %d",
								trial, round, w != nil, g.placed, g.ByteHops, g.Perms, r.placed, r.ByteHops, r.Perms)
						}
						for _, id := range ids {
							if g.Engine(id) != r.Engine(id) {
								t.Fatalf("trial %d round %d (weights %v): atom %d on engine %d, reference %d",
									trial, round, w != nil, id, g.Engine(id), r.Engine(id))
							}
						}
					}
				}
			}
			if shared == 0 || empty == 0 || mesh.Engines() > 64 && highSrc == 0 {
				t.Errorf("cases not exercised: %d shared rows, %d empty signatures, %d sources above 63",
					shared, empty, highSrc)
			}
			t.Logf("%d shared rows, %d empty signatures, %d sources above 63", shared, empty, highSrc)
		})
	}
}

// depsOf expands atom id's producers and edge bytes.
func depsOf(d *atom.DAG, id int) ([]int, []int64) {
	ids, bytes, off := d.Deps(id)
	deps := make([]int, len(ids))
	for i, p := range ids {
		deps[i] = int(p + off)
	}
	return deps, bytes
}
