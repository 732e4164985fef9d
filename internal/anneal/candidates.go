// Package anneal implements the paper's Algorithm 1: simulated-annealing
// atomic tensor generation, which chooses per-layer atom sizes
// [h_p, w_p, c_p^o] such that (1) the spatially-unrolled dimensions are
// quantized to the PE array so each engine runs at high utilization, and
// (2) the execution cycles of all layers' atoms concentrate around one
// unified value, minimizing load imbalance between atoms co-scheduled in
// the same Round. A genetic-algorithm comparator (used by the paper's
// Fig. 5b) is provided for evaluation.
package anneal

import (
	"slices"
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// candidate is one feasible atom size for a layer, pre-priced.
type candidate struct {
	part    atom.Partition
	cycles  int64   // engine cycles of one (full) tile
	util    float64 // PE utilization of one tile
	tiles   int     // atoms the partition induces on the layer
	chTiles int     // output-channel tiles, channelTiles(layer, part.Cop)
}

// layerCands holds a layer's candidate list sorted by cycles ascending.
type layerCands struct {
	layer *graph.Layer
	cands []candidate
	// reps holds the first candidate of each distinct (cycles, util,
	// chTiles), in ascending order: later exact duplicates never win a
	// pick, so the window scan skips them.
	reps []rep
}

// rep is the part of a candidate pick reads, stored contiguously so the
// window search and scan touch one array.
type rep struct {
	cycles  int64
	util    float64
	chTiles int32
	idx     int32 // index into cands
}

// newLayerCands wraps a cycles-sorted candidate list with its reps.
func newLayerCands(l *graph.Layer, cands []candidate) layerCands {
	reps := make([]rep, 0, len(cands))
	run := 0 // first candidate with the current cycles value
	for j, c := range cands {
		if c.cycles != cands[run].cycles {
			run = j
		}
		dup := false
		for k := run; k < j && !dup; k++ {
			dup = cands[k].util == c.util && cands[k].chTiles == c.chTiles
		}
		if !dup {
			reps = append(reps, rep{c.cycles, c.util, int32(c.chTiles), int32(j)})
		}
	}
	return layerCands{layer: l, cands: cands, reps: reps}
}

// pick returns the index of the best candidate for a target cycle count:
// among candidates within ±25% of the target, the one with the fewest
// output-channel tiles wins (every extra channel tile re-reads the whole
// input tensor once, multiplying NoC/DRAM traffic); ties and the
// no-candidate-in-window case fall back to nearest-cycles. The list is
// sorted by cycles, so the window is one run of reps: one search finds
// its start, one forward pass its end and best utilization, and a scan
// of the window applies the rules.
func (lc *layerCands) pick(target int64) int {
	r := lc.reps
	start := searchReps(r, target-target/4)
	hi := target + target/4
	maxUtil := 0.0
	end := start
	for ; end < len(r) && r[end].cycles <= hi; end++ {
		if r[end].util > maxUtil {
			maxUtil = r[end].util
		}
	}
	// Within the window: keep near-peak PE utilization (target 1), then
	// minimize channel tiles (target 2: every extra channel tile
	// re-reads the whole input once), then nearest cycles.
	minUtil := 0.9 * maxUtil
	best := -1
	for j := start; j < end; j++ {
		if r[j].util < minUtil {
			continue
		}
		if best < 0 || r[j].chTiles < r[best].chTiles ||
			(r[j].chTiles == r[best].chTiles && absDiff(r[j].cycles, target) < absDiff(r[best].cycles, target)) {
			best = j
		}
	}
	if best >= 0 {
		return int(r[best].idx)
	}
	// Nearest cycles. The first candidate of every cycles value is a rep,
	// so rep k is the first candidate reaching the target, and rep k-1
	// carries the largest cycles value below it.
	k := start
	for k < end && r[k].cycles < target {
		k++
	}
	switch {
	case k == len(r): // every candidate is below the target
		return len(lc.cands) - 1
	case k > 0 && target-r[k-1].cycles <= r[k].cycles-target:
		// The last candidate below the target: the one before rep k.
		return int(r[k].idx) - 1
	}
	return int(r[k].idx)
}

// searchReps returns the first index into reps whose cycles reach v
// (len(reps) if none does). Short lists, the common case under YX-P, are
// scanned linearly: that beats the mispredicted branches of a binary
// search below ~16 entries.
func searchReps(reps []rep, v int64) int {
	if len(reps) <= 16 {
		i := 0
		for i < len(reps) && reps[i].cycles < v {
			i++
		}
		return i
	}
	lo, hi := 0, len(reps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if reps[m].cycles < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func channelTiles(l *graph.Layer, cop int) int {
	if cop <= 0 {
		return 1
	}
	return (l.Shape.Co + cop - 1) / cop
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// genCandidates enumerates feasible atom sizes for one compute layer.
// Spatially-unrolled dims are quantized to the PE array per the dataflow
// (paper Sec. IV-A: sizes are [c0, c1, c2*PEx, c3*PEy] under KC-P);
// candidates whose working set cannot fit in the usable buffer fraction
// are discarded, and tile counts are capped to keep the atomic DAG
// tractable. The kept partitions are priced with the exact oracle, in
// enumeration order, straight into one list sized for every partition
// the enumeration can yield.
func genCandidates(l *graph.Layer, cfg engine.Config, df engine.Dataflow, opt Options, orc cost.Oracle) []candidate {
	s := l.Shape
	var hs, ws, cs []int
	// Channel extents always quantize to at least the column width even
	// when channels are temporal (YX-P): finer slices cannot raise
	// utilization, but they shred the atomic DAG — every dense consumer
	// depends on all of a layer's channel tiles, so Cop=1 atoms explode
	// the edge count quadratically.
	cq := cfg.PEy
	switch {
	case l.Kind == graph.OpDepthwiseConv:
		// No cross-channel reuse: channel dim quantizes to PEy under
		// KC-P (kernel occupies the rows), spatial dims under YX-P.
		if df == engine.KCPartition {
			hs, ws = splitSizes(s.Ho, 1, maxSplits), splitSizes(s.Wo, 1, maxSplits)
		} else {
			hs, ws = splitSizes(s.Ho, cfg.PEx, maxSplits), splitSizes(s.Wo, cfg.PEy, maxSplits)
		}
		cs = splitSizes(s.Co, cq, maxSplits)
	case df == engine.KCPartition:
		hs, ws = splitSizes(s.Ho, 1, maxSplits), splitSizes(s.Wo, 1, maxSplits)
		cs = splitSizes(s.Co, cq, maxSplits)
	case df == engine.FlexPartition:
		// Sizes [c0, c1*PEz, c2*PEx, c3*PEy] (paper Sec. VI-A): width
		// quantizes to the third array dimension.
		hs, ws = splitSizes(s.Ho, 1, maxSplits), splitSizes(s.Wo, cfg.PEzOf(), maxSplits)
		cs = splitSizes(s.Co, cq, maxSplits)
	default: // YXPartition
		hs, ws = splitSizes(s.Ho, cfg.PEx, maxSplits), splitSizes(s.Wo, cfg.PEy, maxSplits)
		cs = splitSizes(s.Co, cq, maxSplits)
	}
	budget := int64(float64(cfg.BufferBytes) * bufferFraction)
	// Weights stream through the buffer in per-pass windows (the array
	// consumes PEx x PEy values per kernel position), so the residency
	// requirement is a double-buffered window, not the full slice — full
	// slices are cached opportunistically by the buffer manager when room
	// remains (Algorithm 3 treats them as evictable entries).
	weightWindow := int64(4 * cfg.PEx * cfg.PEy * s.Kh * s.Kw)
	// Prefer atoms whose weight slice can actually be cached in an
	// engine's buffer (Algorithm 3 stores weights opportunistically, but
	// a slice above ~3/4 of the buffer always streams from DRAM and is
	// re-fetched by every atom that needs it). Uncacheable sizes are kept
	// only when no feasible size is cacheable (e.g. very wide FC layers).
	// A first pass decides which case holds, so only the partitions that
	// enter the list are priced.
	cacheLimit := int64(cfg.BufferBytes) * 3 / 4
	// feasible returns the tile task and tile count of a partition, and
	// whether it fits the tile cap and the buffer budget.
	feasible := func(p atom.Partition) (engine.Task, int, bool) {
		tiles := p.Tiles(l)
		if tiles > opt.maxTiles() {
			return engine.Task{}, 0, false
		}
		t := engine.TileTask(l, p.Hp, p.Wp, p.Cop)
		return t, tiles, inputWindow(t)+t.OutputBytes()+min(t.WeightBytes(), weightWindow) <= budget
	}
	cacheable := false
scan:
	for _, hp := range hs {
		for _, wp := range ws {
			for _, cp := range cs {
				if t, _, ok := feasible(atom.Partition{Hp: hp, Wp: wp, Cop: cp}); ok && t.WeightBytes() <= cacheLimit {
					cacheable = true
					break scan
				}
			}
		}
	}
	cands := make([]candidate, 0, len(hs)*len(ws)*len(cs))
	for _, hp := range hs {
		for _, wp := range ws {
			for _, cp := range cs {
				p := atom.Partition{Hp: hp, Wp: wp, Cop: cp}
				t, tiles, ok := feasible(p)
				if !ok || (cacheable && t.WeightBytes() > cacheLimit) {
					continue
				}
				c := orc.Evaluate(cfg, df, t)
				cands = append(cands, candidate{part: p, cycles: c.Cycles,
					util: c.Utilization, tiles: tiles, chTiles: channelTiles(l, cp)})
			}
		}
	}
	// Target (1) of Sec. IV-A — high PE utilization — precedes balance:
	// drop candidates far below the layer's best achievable utilization
	// (tiny tiles of fill/drain-bound layers would otherwise be selected
	// as "closest to the unified cycle" while wasting the array).
	if len(cands) > 0 {
		maxU := 0.0
		for _, c := range cands {
			if c.util > maxU {
				maxU = c.util
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if c.util >= 0.6*maxU {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if len(cands) == 0 {
		// Nothing fits the buffer: fall back to one array-quantized tile
		// per spatial position so the pipeline still produces a
		// (memory-thrashing) schedule with a bounded atom count.
		p := atom.Partition{Hp: min(s.Ho, cfg.PEx), Wp: min(s.Wo, cfg.PEy), Cop: s.Co}
		c := orc.Evaluate(cfg, df, engine.TileTask(l, p.Hp, p.Wp, p.Cop))
		cands = append(cands, candidate{part: p, cycles: c.Cycles, util: c.Utilization,
			tiles: p.Tiles(l), chTiles: channelTiles(l, p.Cop)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cycles < cands[j].cycles })
	return cands
}

// splitSizes enumerates tile extents for a dimension of size n, quantized
// up to multiples of q (capped at n), using the distinct values of
// ceil(n/k). The count is capped at maxSplits, biased toward coarse tiles
// (few, large atoms) plus the finest few.
func splitSizes(n, q, maxSplits int) []int {
	if q <= 0 {
		q = 1
	}
	r := 0 // the largest k with k·k <= n
	for (r+1)*(r+1) <= n {
		r++
	}
	sizes := make([]int, 0, 2*r)
	add := func(sz int) {
		if sz < 1 {
			sz = 1
		}
		// Quantize up to a multiple of q, capped at n.
		if q > 1 {
			sz = ((sz + q - 1) / q) * q
		}
		sizes = append(sizes, min(sz, n))
	}
	// Distinct ceil(n/k) values: k and n/k enumerate them all.
	for k := 1; k <= r; k++ {
		add((n + k - 1) / k)
		add(k)
	}
	slices.SortFunc(sizes, func(a, b int) int { return b - a })
	sizes = slices.Compact(sizes)
	if len(sizes) > maxSplits {
		// Keep the coarsest maxSplits-2 plus the two finest.
		sizes[maxSplits-2], sizes[maxSplits-1] = sizes[len(sizes)-2], sizes[len(sizes)-1]
		sizes = sizes[:maxSplits]
	}
	return sizes
}

// inputWindow returns the input residency an atom really needs: input
// channels are consumed in temporal chunks (like weights), so only a
// double-buffered 32-channel window of the input tile must be resident;
// the full slab streams through. Element-wise and pooling tasks consume
// their inputs once, streaming fully.
func inputWindow(t engine.Task) int64 {
	in := t.InputBytes()
	switch t.Kind {
	case graph.OpConv, graph.OpFC:
		if t.Ci > 32 {
			return in / int64(t.Ci) * 32
		}
	case graph.OpDepthwiseConv:
		if t.Cop > 32 {
			return in / int64(t.Cop) * 32
		}
	}
	return in
}
