// Package mapping implements the paper's atom-engine mapping stage
// (Sec. IV-C): given the atoms of one Round, choose which physical engine
// runs each atom so that inter-engine tensor transfers travel the fewest
// NoC hops. As in the paper, atoms are laid onto the 2D mesh in zig-zag
// order with same-layer atoms adjacent, and the free variable is the
// permutation P of the involved layers; TransferCost(P) = Σ D(i,j) x Size
// is minimized by branch-and-bound permutation search for small M and
// pairwise-swap hill climbing above that.
package mapping

import (
	"math/bits"
	"slices"
	"sync"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// maxExhaustive is the largest layer-group count for which the optimal
// permutation is found exactly (branch-and-bound over at most 6! = 720
// leaves; pruning typically visits far fewer).
const maxExhaustive = 6

// Locator reports where an atom's output currently resides: the engine
// index, or -1 if it is off-chip (in DRAM) or not yet produced.
type Locator func(atomID int) int

// WeightLocator reports whether an engine's buffer already caches the
// weight slice an atom needs, so placement can exploit weight reuse.
// A nil WeightLocator disables the weight-affinity refinement. It must
// answer alike for two atoms of one layer covering the same output-channel
// range — they need the same weight slice — as buffer.Manager.HasWeights
// does: the refinement asks once per slice and engine.
type WeightLocator func(engineID, atomID int) bool

// dramHopEquivalent converts a byte refetched from DRAM into the
// placement cost of a byte moved one NoC hop (7 pJ/bit HBM vs 0.61
// pJ/bit/hop NoC ≈ 11; rounded down to keep ifmap locality dominant).
const dramHopEquivalent = 8

// Mapper places Rounds onto a mesh. One goroutine at a time may call
// PlaceRound/PlaceRoundWeighted (the scratch buffers below are reused
// across calls), but Recycle is safe to call concurrently with placement:
// the pipelined simulator recycles round t's Result on the timing
// goroutine while the prep goroutine is already placing round t+1.
type Mapper struct {
	mesh    *noc.Mesh
	dag     *atom.DAG
	zigzag  []int   // engine indices in zig-zag (snake) order
	zigHops []int64 // src engine x zig-zag slot -> hop count (row-major)

	// Round grouping (see groupByLayer): the group index of each
	// (sample, layer) pair, valid when its gstamp equals stamp.
	layers int // pair index = sample·layers + layer
	gpair  []int32
	gstamp []int64
	stamp  int64

	// Permutation-search scratch (see buildCostTable).
	groupsBuf []group
	atomPool  [][]int
	orderBuf  []int
	bestBuf   []int
	sizes     []int   // group -> atom count
	groupCost []int64 // group x base-slot byte-hop costs
	minFrom   []int64 // group x base suffix minima (branch-and-bound bound)
	ctSlots   int     // slot count of the current table

	// Shared cost rows (see buildCostTable). Atoms with the same
	// per-source dependency bytes share one row of atomRows; rowOf, slotOf
	// and the signature table are valid for the current Round only.
	atomRows []int64   // distinct per-slot cost rows (row-major; reused by refine)
	rowOf    []int32   // atom ID -> atomRows row
	slotOf   []int32   // engine index -> zig-zag slot
	srcBytes []int64   // engine -> one atom's dependency bytes from it (zero between atoms)
	srcSet   []uint64  // engine bitset of srcBytes' non-zero entries (zero between atoms)
	sigs     []srcByte // row signatures, back to back: row r is sigs[sigEnd[r-1]:sigEnd[r]]
	sigEnd   []int32   // row -> end of its signature in sigs
	sigTab   []int32   // open-addressing signature hash table: row+1, 0 = empty

	// Weight-refinement scratch (see refineForWeights).
	refEng    []int
	refPos    []int
	refCls    []int
	refWKey   [][2]int
	refRowCls []int32
	refIfm    []int64
	refWgt    []int64
	refCost   []int64
	refCur    []int64

	// Result free list (see Recycle). Guarded by freeMu because results
	// are recycled by the simulator's timing goroutine while the prep
	// goroutine allocates the next Round's placement.
	freeMu  sync.Mutex
	freeEng [][]int32
	freePl  [][]int
}

// New returns a Mapper for the DAG on the mesh.
func New(mesh *noc.Mesh, dag *atom.DAG) *Mapper {
	m := &Mapper{}
	m.Reset(mesh, dag)
	return m
}

// Reset re-targets a pooled Mapper at a (possibly different) mesh and DAG,
// keeping its scratch allocations. The recycled-Result free list survives
// when the atom count is unchanged (entries are sized by NumAtoms) and is
// dropped otherwise.
func (m *Mapper) Reset(mesh *noc.Mesh, dag *atom.DAG) {
	if m.dag != nil && m.dag.NumAtoms() != dag.NumAtoms() {
		m.freeMu.Lock()
		m.freeEng = m.freeEng[:0]
		m.freePl = m.freePl[:0]
		m.freeMu.Unlock()
	}
	m.mesh, m.dag = mesh, dag
	// Pair stamps only grow, so entries left by an earlier DAG read as
	// stale without clearing.
	layers, samples := 0, 0
	for _, a := range dag.Atoms {
		layers, samples = max(layers, a.Layer+1), max(samples, a.Sample+1)
	}
	m.layers = layers
	if n := layers * samples; cap(m.gpair) >= n {
		m.gpair, m.gstamp = m.gpair[:n], m.gstamp[:n]
	} else {
		m.gpair, m.gstamp = make([]int32, n), make([]int64, n)
	}
	m.zigzag = m.zigzag[:0]
	for y := 0; y < mesh.H; y++ {
		if y%2 == 0 {
			for x := 0; x < mesh.W; x++ {
				m.zigzag = append(m.zigzag, mesh.EngineAt(x, y))
			}
		} else {
			for x := mesh.W - 1; x >= 0; x-- {
				m.zigzag = append(m.zigzag, mesh.EngineAt(x, y))
			}
		}
	}
	// Hop counts from every source engine to every zig-zag slot, so the
	// cost-table inner loop reads a contiguous row instead of gathering
	// through the zigzag permutation per dependency.
	ne := mesh.Engines()
	zh := growInt64s(&m.zigHops, ne*ne)
	for src := 0; src < ne; src++ {
		hr := mesh.HopsRow(src)
		for s, e := range m.zigzag {
			zh[src*ne+s] = int64(hr[e])
		}
	}
}

// Result is the placement of one Round. The atom-to-engine assignment is
// a dense NumAtoms-sized slice (no per-Round map): read it through
// Engine, iterate the Round's atoms through Placed. Returning a Result to
// its Mapper with Recycle lets the next Round reuse the slice.
type Result struct {
	engineOf []int32 // atom ID -> engine index, -1 when not placed
	placed   []int   // the atom IDs placed this Round, in slot order
	ByteHops int64   // Σ bytes x hops of on-chip input transfers
	Perms    int     // permutation-search nodes evaluated (diagnostics)
}

// Engine returns the engine assigned to atom id, or -1 if the Result does
// not place it.
func (r Result) Engine(id int) int {
	if id < 0 || id >= len(r.engineOf) {
		return -1
	}
	return int(r.engineOf[id])
}

// Placed returns the atom IDs this Result places, in zig-zag slot order.
// The slice is owned by the Result; do not retain it past Recycle.
func (r Result) Placed() []int { return r.placed }

// NumPlaced returns how many atoms the Result places.
func (r Result) NumPlaced() int { return len(r.placed) }

// Recycle returns res's backing storage to the Mapper for the next
// PlaceRound call. Only the entries placed by res are cleared, so the
// cost is O(atoms in the Round), not O(NumAtoms). res must not be used
// afterwards. Safe to call from a different goroutine than the placer.
func (m *Mapper) Recycle(res *Result) {
	if res.engineOf == nil {
		return
	}
	for _, id := range res.placed {
		res.engineOf[id] = -1
	}
	m.freeMu.Lock()
	m.freeEng = append(m.freeEng, res.engineOf)
	m.freePl = append(m.freePl, res.placed[:0])
	m.freeMu.Unlock()
	res.engineOf, res.placed = nil, nil
}

// newResult pops a recycled engine slice (all -1) and placed slice, or
// allocates fresh ones sized for the DAG.
func (m *Mapper) newResult() ([]int32, []int) {
	m.freeMu.Lock()
	var eng []int32
	var pl []int
	if n := len(m.freeEng); n > 0 {
		eng = m.freeEng[n-1]
		m.freeEng = m.freeEng[:n-1]
	}
	if n := len(m.freePl); n > 0 {
		pl = m.freePl[n-1]
		m.freePl = m.freePl[:n-1]
	}
	m.freeMu.Unlock()
	if eng == nil {
		eng = make([]int32, m.dag.NumAtoms())
		for i := range eng {
			eng[i] = -1
		}
	}
	return eng, pl
}

// group is the placement unit: the Round's atoms of one (sample, layer).
type group struct {
	atoms []int
}

// PlaceRound assigns each Round atom an engine. locate reports the engine
// holding each dependency's output (-1 = off-chip, no NoC cost — the DRAM
// cost does not depend on P).
func (m *Mapper) PlaceRound(roundAtoms []int, locate Locator) Result {
	return m.PlaceRoundWeighted(roundAtoms, locate, nil)
}

// PlaceRoundWeighted is PlaceRound with an optional weight-affinity
// refinement: after the layer permutation fixes each group's slot range,
// atoms are swapped within their group to land on engines that already
// cache their weight slices, as long as the combined ifmap-hop +
// weight-refetch cost improves.
func (m *Mapper) PlaceRoundWeighted(roundAtoms []int, locate Locator, weights WeightLocator) Result {
	groups := m.groupByLayer(roundAtoms)
	m.buildCostTable(groups, locate)
	return m.place(groups, weights)
}

// place searches the layer permutation over the cost table buildCostTable
// filled for groups, lays the groups onto the zig-zag slots and, with a
// WeightLocator, refines the placement for weight reuse.
func (m *Mapper) place(groups []group, weights WeightLocator) Result {
	order := m.orderBuf[:0]
	for i := range groups {
		order = append(order, i)
	}
	m.orderBuf = order

	best := append(m.bestBuf[:0], order...)
	m.bestBuf = best
	bestCost := m.permCost(best)
	perms := 1
	if len(groups) > 1 && len(groups) <= maxExhaustive {
		bestCost, perms = m.branchAndBound(len(groups), best, bestCost)
	} else if len(groups) > maxExhaustive {
		// Pairwise-swap hill climbing, restarted until a full pass makes
		// no improvement.
		improved := true
		for improved {
			improved = false
			for i := 0; i < len(best); i++ {
				for j := i + 1; j < len(best); j++ {
					best[i], best[j] = best[j], best[i]
					perms++
					if c := m.permCost(best); c < bestCost {
						bestCost = c
						improved = true
					} else {
						best[i], best[j] = best[j], best[i]
					}
				}
			}
		}
	}

	eng, placed := m.newResult()
	res := Result{engineOf: eng, placed: placed, ByteHops: bestCost, Perms: perms}
	slot := 0
	for _, gi := range best {
		for _, id := range groups[gi].atoms {
			res.engineOf[id] = int32(m.zigzag[slot])
			res.placed = append(res.placed, id)
			slot++
		}
	}
	if weights != nil {
		m.refineForWeights(groups, best, res.engineOf, weights)
		res.ByteHops = m.placementCost(&res)
	}
	return res
}

// branchAndBound searches the M! layer permutations with prefix pruning
// on the cost table: a prefix is abandoned when its cost plus a lower
// bound on every unplaced group (the suffix minimum of that group's cost
// row from the current base slot on) already exceeds the best complete
// permutation. It returns the best cost and the number of nodes priced.
//
// Tie-breaking reproduces the previous exhaustive search exactly (pinned
// by the golden/determinism digests): that search visited permutations in
// Heap's-algorithm order starting from the identity and kept the FIRST
// one achieving the minimum (strict <). Equivalently, ties resolve to the
// smallest Heap rank — so when a leaf merely equals bestCost, it wins
// only if its precomputed Heap rank is smaller.
func (m *Mapper) branchAndBound(M int, best []int, bestCost int64) (int64, int) {
	slots := m.ctSlots
	// Suffix minima: minFrom[g*slots+b] = min over b' in [b, maxBase(g)]
	// of groupCost[g*slots+b'], where maxBase(g) = slots - size(g) is the
	// last base the group can legally occupy. Bases grow monotonically
	// along a permutation, so the value at the current base lower-bounds
	// the group's eventual cost wherever it lands.
	minFrom := growInt64s(&m.minFrom, M*slots)
	for g := 0; g < M; g++ {
		maxBase := slots - m.sizes[g]
		row := m.groupCost[g*slots : (g+1)*slots]
		mf := minFrom[g*slots : (g+1)*slots]
		min := row[maxBase]
		for b := maxBase; b >= 0; b-- {
			if row[b] < min {
				min = row[b]
			}
			mf[b] = min
		}
	}

	ranks := heapRanks(M)
	bestRank := ranks[packPerm(best[:M])] // identity start = rank 0
	nodes := 1
	var perm [maxExhaustive]int
	var dfs func(depth, base int, used uint32, prefix int64)
	dfs = func(depth, base int, used uint32, prefix int64) {
		if depth == M {
			nodes++
			if r := ranks[packPerm(perm[:M])]; prefix < bestCost ||
				(prefix == bestCost && r < bestRank) {
				bestCost, bestRank = prefix, r
				copy(best, perm[:M])
			}
			return
		}
		// Prune only on strictly-greater bounds: an equal bound may still
		// hide an equal-cost leaf with a smaller Heap rank.
		lb := prefix
		for g := 0; g < M; g++ {
			if used&(1<<g) == 0 {
				lb += minFrom[g*slots+base]
			}
		}
		if lb > bestCost {
			return
		}
		for g := 0; g < M; g++ {
			if used&(1<<g) != 0 {
				continue
			}
			perm[depth] = g
			dfs(depth+1, base+m.sizes[g], used|1<<g, prefix+m.groupCost[g*slots+base])
		}
	}
	dfs(0, 0, 0, 0)
	return bestCost, nodes
}

// packPerm encodes a permutation of 0..len-1 (len ≤ 6) into 3 bits per
// element — the key of the Heap-rank tables.
func packPerm(p []int) uint32 {
	var k uint32
	for _, v := range p {
		k = k<<3 | uint32(v)
	}
	return k
}

var (
	heapRankTabs [maxExhaustive + 1]map[uint32]int
	heapRankOnce [maxExhaustive + 1]sync.Once
)

// heapRanks returns the table mapping each packed permutation of 0..n-1
// to its visit rank under Heap's algorithm (identity = 0) — the tie-break
// order of the historical exhaustive search. Built once per n, at most
// 720 entries.
func heapRanks(n int) map[uint32]int {
	heapRankOnce[n].Do(func() {
		tab := make(map[uint32]int)
		ord := make([]int, n)
		for i := range ord {
			ord[i] = i
		}
		rank := 0
		permute(ord, func(p []int) {
			tab[packPerm(p)] = rank
			rank++
		})
		heapRankTabs[n] = tab
	})
	return heapRankTabs[n]
}

// placementCost prices a final placement of the current Round from the
// cost rows buildCostTable cached: an atom's row entry at its engine's
// slot is its ifmap byte-hop cost there (a dependency already on that
// engine costs zero hops).
func (m *Mapper) placementCost(res *Result) int64 {
	var cost int64
	for _, id := range res.placed {
		cost += m.atomRows[int(m.rowOf[id])*m.ctSlots+int(m.slotOf[res.engineOf[id]])]
	}
	return cost
}

// refineForWeights hill-climbs within each group's slots, swapping atom
// pairs whenever the combined cost drops. The group's candidate engines
// are fixed by the permutation (swaps only permute atoms among them), and
// buffer residency does not change during placement, so every atom-engine
// cost — ifmap fetch hops plus the DRAM-equivalent price of a weight
// slice the engine does not hold — is assembled into one dense n x n
// matrix and each swap check is four lookups.
//
// Both terms are priced per class rather than per atom: the ifmap term
// once per shared cost row (gathered from the row buildCostTable already
// priced), the weight term once per weight slice (one output-channel
// range of the group's layer), and an atom's matrix row is the sum of its
// two class rows. Atoms agreeing on both classes have equal matrix rows,
// and swapping two equal rows never changes the cost, so the hill-climb
// skips those pairs without moving any decision.
func (m *Mapper) refineForWeights(groups []group, perm []int, engineOf []int32, weights WeightLocator) {
	slots := m.ctSlots
	// rowCls maps a Round row to its ifmap class in the current group
	// plus one (0 = not seen); every group resets the entries it set.
	rowCls := growInt32s(&m.refRowCls, slots)
	clear(rowCls)
	for _, gi := range perm {
		atoms := groups[gi].atoms
		n := len(atoms)
		if n < 2 {
			continue
		}
		eng := growInts(&m.refEng, n)
		for j, id := range atoms {
			eng[j] = int(engineOf[id])
		}
		ifm := growInt64s(&m.refIfm, n*n) // ifmap class x engine index
		wgt := growInt64s(&m.refWgt, n*n) // weight class x engine index
		cls := growInts(&m.refCls, n)     // atom -> ifmap class·n + weight class
		wkeys := m.refWKey[:0]            // weight class -> output-channel range
		nr := 0
		for i, id := range atoms {
			a := m.dag.Atoms[id]
			r := m.rowOf[id]
			ri := int(rowCls[r]) - 1
			if ri < 0 {
				ri, nr = nr, nr+1
				rowCls[r] = int32(nr)
				row := m.atomRows[int(r)*slots : (int(r)+1)*slots]
				out := ifm[ri*n : (ri+1)*n]
				for j, e := range eng {
					out[j] = row[m.slotOf[e]]
				}
			}
			key := [2]int{a.Region.C0, a.Region.C1}
			wi := slices.Index(wkeys, key)
			if wi < 0 {
				wi = len(wkeys)
				wkeys = append(wkeys, key)
				wb := a.Task.WeightBytes() * dramHopEquivalent
				out := wgt[wi*n : (wi+1)*n]
				for j, e := range eng {
					out[j] = 0
					if !weights(e, id) {
						out[j] = wb
					}
				}
			}
			cls[i] = ri*n + wi
		}
		m.refWKey = wkeys
		// costT[p*n+i] is atom i's cost on engine eng[p], so the hill-climb
		// reads the atoms' costs at one slot contiguously; cur[i] is atom
		// i's cost where it sits now.
		costT := growInt64s(&m.refCost, n*n)
		cur := growInt64s(&m.refCur, n)
		for i, id := range atoms {
			rowCls[m.rowOf[id]] = 0
			ri, wi := cls[i]/n, cls[i]%n
			fi, fw := ifm[ri*n:(ri+1)*n], wgt[wi*n:(wi+1)*n]
			for p := range fi {
				costT[p*n+i] = fi[p] + fw[p]
			}
			cur[i] = fi[i] + fw[i]
		}
		// pos[i] is the slot (index into eng) atom i currently occupies.
		pos := growInts(&m.refPos, n)
		for i := range pos {
			pos[i] = i
		}
		improved := true
		for pass := 0; improved && pass < 4; pass++ {
			improved = false
			for i := 0; i < n; i++ {
				ri, wi := cls[i]/n, cls[i]%n
				fi, fw := ifm[ri*n:(ri+1)*n], wgt[wi*n:(wi+1)*n]
				pi := pos[i]
				at := costT[pi*n : (pi+1)*n]
				for j := i + 1; j < n; j++ {
					if cls[i] == cls[j] {
						continue
					}
					pj := pos[j]
					// Swap when cost[i][pj] + cost[j][pi] < cost[i][pi] + cost[j][pj].
					if ci := fi[pj] + fw[pj]; ci+at[j] < cur[i]+cur[j] {
						pos[i], pos[j] = pj, pi
						cur[i], cur[j] = ci, at[j]
						pi, at = pj, costT[pj*n:(pj+1)*n]
						improved = true
					}
				}
			}
		}
		for i, id := range atoms {
			engineOf[id] = int32(eng[pos[i]])
		}
	}
}

// buildCostTable fills the Mapper's permutation-search table for the
// Round: groupCost[gi*slots+base] is the ifmap byte-hop cost of landing
// group gi's atoms on zig-zag slots base..base+size-1. Dependency sources
// are fixed by locate (they were placed in earlier Rounds), so the cost
// of a group depends only on its base slot — a permutation's TransferCost
// is the sum of M lookups along its prefix bases (see permCost).
//
// An atom's per-slot cost row is a pure function of its signature, the
// dependency bytes it draws from each source engine; most atoms of a
// Round repeat an earlier atom's signature, so they share that atom's row
// (see rowFor) instead of pricing every slot again. The rows are kept,
// with a lookup index by atom ID and an engine -> slot inverse, so
// refineForWeights and placementCost can price placements without
// re-walking any dependency lists. Stale rowOf/slotOf entries from earlier
// Rounds are never read: both only query this Round's atoms and slot
// engines.
func (m *Mapper) buildCostTable(groups []group, locate Locator) {
	slots := 0
	for _, g := range groups {
		slots += len(g.atoms)
	}
	m.ctSlots = slots
	sizes := growInts(&m.sizes, len(groups))
	groupCost := growInt64s(&m.groupCost, len(groups)*slots)
	ne := m.mesh.Engines()
	growInt64s(&m.srcBytes, ne)
	growUint64s(&m.srcSet, (ne+63)/64)
	atomRows := growInt64s(&m.atomRows, slots*slots)
	rowOf := growInt32s(&m.rowOf, m.dag.NumAtoms())
	slotOf := growInt32s(&m.slotOf, ne)
	for s := 0; s < slots; s++ {
		slotOf[m.zigzag[s]] = int32(s)
	}
	tabSize := 2
	for tabSize < 2*slots {
		tabSize *= 2
	}
	clear(growInt32s(&m.sigTab, tabSize))
	m.sigs, m.sigEnd = m.sigs[:0], m.sigEnd[:0]
	for gi, g := range groups {
		sizes[gi] = len(g.atoms)
		gc := groupCost[gi*slots : (gi+1)*slots]
		clear(gc)
		for k, id := range g.atoms {
			r := m.rowFor(m.dag.Atoms[id], locate)
			rowOf[id] = r
			row := atomRows[int(r)*slots : (int(r)+1)*slots]
			// A group at base b puts its k-th atom on slot b+k.
			for b := 0; b+len(g.atoms) <= slots; b++ {
				gc[b] += row[b+k]
			}
		}
	}
}

// srcByte is one entry of a cost-row signature: the dependency bytes an
// atom draws from one source engine.
type srcByte struct {
	src   int32
	bytes int64
}

// rowFor returns the atomRows row of atom a, pricing a new row only when
// no earlier atom of the Round has the same signature. The signature
// lists the atom's non-zero dependency bytes per source engine in
// ascending engine order: the dependencies are summed into srcBytes and
// marked in the srcSet bitset, whose set bits are then read off in order
// (leaving both all zero again). It is hashed and compared exactly
// against the Round's stored signatures.
func (m *Mapper) rowFor(a *atom.Atom, locate Locator) int32 {
	srcBytes, set := m.srcBytes, m.srcSet
	for di, dep := range a.Deps {
		if src := locate(dep); src >= 0 {
			srcBytes[src] += a.DepBytes[di]
			set[src>>6] |= 1 << (src & 63)
		}
	}
	sigs := m.sigs
	start := len(sigs)
	h := uint64(14695981039346656037) // FNV-1a over the (src, bytes) words
	for w, word := range set {
		set[w] = 0
		for ; word != 0; word &= word - 1 {
			src := w<<6 | bits.TrailingZeros64(word)
			b := srcBytes[src]
			srcBytes[src] = 0
			if b == 0 {
				continue
			}
			sigs = append(sigs, srcByte{src: int32(src), bytes: b})
			h = (h ^ uint64(src)) * 1099511628211
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	sig := sigs[start:]
	tab := m.sigTab
	mask := len(tab) - 1
	for i := int(h^h>>32) & mask; ; i = (i + 1) & mask {
		r := tab[i] - 1
		if r < 0 {
			r = int32(len(m.sigEnd))
			tab[i] = r + 1
			m.sigs, m.sigEnd = sigs, append(m.sigEnd, int32(len(sigs)))
			m.fillRow(m.atomRows[int(r)*m.ctSlots:(int(r)+1)*m.ctSlots], sig)
			return r
		}
		lo := int32(0)
		if r > 0 {
			lo = m.sigEnd[r-1]
		}
		if slices.Equal(sigs[lo:m.sigEnd[r]], sig) {
			m.sigs = sigs[:start]
			return r
		}
	}
}

// fillRow writes the ifmap byte-hop cost of a signature at every slot of
// row: one slot pass per source engine.
func (m *Mapper) fillRow(row []int64, sig []srcByte) {
	clear(row)
	ne := len(m.srcBytes)
	for _, sb := range sig {
		zh := m.zigHops[int(sb.src)*ne:][:len(row)]
		for s := range row {
			row[s] += sb.bytes * zh[s]
		}
	}
}

// permCost prices one layer permutation from the cost table built by
// buildCostTable: O(M) lookups, no allocation, exactly equal to the
// TransferCost of placing the groups in that order.
func (m *Mapper) permCost(perm []int) int64 {
	var c int64
	base := 0
	for _, gi := range perm {
		c += m.groupCost[gi*m.ctSlots+base]
		base += m.sizes[gi]
	}
	return c
}

// growInts returns *buf resized to n, reusing its capacity.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
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

// growUint64s returns *buf resized to n, reusing its capacity.
func growUint64s(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growInt64s returns *buf resized to n, reusing its capacity.
func growInt64s(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// groupByLayer buckets the Round's atoms into (sample, layer) groups,
// preserving the scheduler's deterministic order. The group headers and
// per-group atom slices are pooled on the Mapper and reused across
// Rounds; the returned slice is valid until the next call.
func (m *Mapper) groupByLayer(roundAtoms []int) []group {
	m.stamp++
	groups := m.groupsBuf[:0]
	for _, id := range roundAtoms {
		a := m.dag.Atoms[id]
		p := a.Sample*m.layers + a.Layer
		gi := int(m.gpair[p])
		if m.gstamp[p] != m.stamp {
			gi = len(groups)
			m.gpair[p], m.gstamp[p] = int32(gi), m.stamp
			if gi == len(m.atomPool) {
				m.atomPool = append(m.atomPool, nil)
			}
			groups = append(groups, group{atoms: m.atomPool[gi][:0]})
		}
		groups[gi].atoms = append(groups[gi].atoms, id)
	}
	for i := range groups {
		m.atomPool[i] = groups[i].atoms // return grown capacity to the pool
		slices.Sort(groups[i].atoms)
	}
	m.groupsBuf = groups
	return groups
}

// permute calls visit with every permutation of order (Heap's algorithm).
// visit must not retain the slice. It remains the executable definition
// of the historical search order the branch-and-bound tie-break
// reproduces (and builds the Heap-rank tables).
func permute(order []int, visit func([]int)) {
	n := len(order)
	c := make([]int, n)
	visit(order)
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				order[0], order[i] = order[i], order[0]
			} else {
				order[c[i]], order[i] = order[i], order[c[i]]
			}
			visit(order)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// ZigZag exposes the snake order for tests and the LS baseline.
func (m *Mapper) ZigZag() []int { return append([]int(nil), m.zigzag...) }
