package anneal

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/par"
)

// This file is the O(Δ) move-evaluation machinery of the search inner
// loop. Algorithm 1 scores ~MaxIters candidate states, and each one is
// the argmin image of a slightly shifted unified-cycle target, so almost
// every layer keeps the candidate it already had. Two structures turn
// that observation into an asymptotic win:
//
//   - accum: exact integer sums S1 = Σ cycles and S2 = Σ cycles² over the
//     state's energy-participating layers. Integer addition is
//     associative and commutative, so the sums are order-independent by
//     construction, and mean/variance are derived from them in one
//     deterministic float expression — a move updates the accumulators in
//     O(changed layers) and scoring is O(1).
//
//   - pickTable/walker: layerCands.pick(t) is a piecewise-constant
//     function of the integer target t. Each layer's breakpoints are
//     precomputed once per search, merged into one sorted event list, and
//     a walker slides a materialized argmin image along the target axis
//     by applying only the events between the old and new target —
//     O(changed layers) per move instead of O(all layers · candidates).
//
// The walker is cross-checked against the from-scratch argmin/pick path
// by the tests in delta_test.go: verifyDelta, installed as the
// Options.verify hook, checks every move of whole searches, and the
// apply/revert property and fuzz tests check move sequences.

// accum holds exact integer sums over a state's energy-participating
// layers: n layers, S1 = Σ cycles (int64) and S2 = Σ cycles² (unsigned
// 128-bit in s2hi:s2lo). The arithmetic is exact for cycles < 2^40 and
// n < 2^17 — far beyond any buffer-constrained atom (≤ ~10^7 cycles) or
// workload depth this repository can represent — so two accumulators
// built from the same multiset of cycles are bit-identical regardless of
// the order the layers were added, removed or re-added in.
type accum struct {
	n          int
	s1         int64
	s2hi, s2lo uint64
}

// add folds one layer's cycles into the sums (the layer count n is
// managed by the state constructors, not by add/sub: a move replaces a
// layer's cycles, it never changes how many layers participate).
func (a *accum) add(c int64) {
	a.s1 += c
	hi, lo := bits.Mul64(uint64(c), uint64(c))
	var carry uint64
	a.s2lo, carry = bits.Add64(a.s2lo, lo, 0)
	a.s2hi, _ = bits.Add64(a.s2hi, hi, carry)
}

// sub removes one layer's cycles from the sums.
func (a *accum) sub(c int64) {
	a.s1 -= c
	hi, lo := bits.Mul64(uint64(c), uint64(c))
	var borrow uint64
	a.s2lo, borrow = bits.Sub64(a.s2lo, lo, 0)
	a.s2hi, _ = bits.Sub64(a.s2hi, hi, borrow)
}

// twoPow64 scales the high limb of a 128-bit value into a float64.
const twoPow64 float64 = 1 << 64

// meanVariance derives the state's unified cycle S (mean) and energy E
// (variance) from the accumulators. The variance numerator n·S2 − S1² is
// computed exactly in 128-bit integers (it is ≥ 0 by Cauchy-Schwarz) and
// only the final division rounds, so the result is a pure function of
// the integer sums — any two states with identical accumulators score
// bit-identically, in any build order.
func (a accum) meanVariance() (mean, variance float64) {
	if a.n == 0 {
		return 0, 0
	}
	n := uint64(a.n)
	// n·S2, keeping the low 128 bits (the true value fits, see type doc).
	hi, lo := bits.Mul64(a.s2lo, n)
	hi += a.s2hi * n
	// − S1² (S1 ≥ 0: it is a sum of nonnegative cycle counts).
	sqhi, sqlo := bits.Mul64(uint64(a.s1), uint64(a.s1))
	var borrow uint64
	lo, borrow = bits.Sub64(lo, sqlo, 0)
	hi, _ = bits.Sub64(hi, sqhi, borrow)

	nf := float64(a.n)
	mean = float64(a.s1) / nf
	variance = (float64(hi)*twoPow64 + float64(lo)) / (nf * nf)
	return mean, variance
}

// mean returns only the unified cycle S.
func (a accum) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.s1) / float64(a.n)
}

// variance returns only the energy E.
func (a accum) variance() float64 {
	_, v := a.meanVariance()
	return v
}

// set points layer i (an index into search.all) at candidate c, keeping
// the accumulators in sync for energy-participating layers. Straggler
// layers (i ≥ nOrder) update only the choice: they are excluded from the
// variance but still follow the target so finish() assembles them.
func (st *state) set(s *search, i, c int) {
	old := st.choice[i]
	if old == c {
		return
	}
	st.choice[i] = c
	if i < s.nOrder {
		st.acc.sub(s.lcAt[i].cands[old].cycles)
		st.acc.add(s.lcAt[i].cands[c].cycles)
	}
}

// targetOf maps a float unified-cycle target onto the integer domain
// pick operates in. Targets below 1 clamp up (a cycle count cannot be
// fractional) and absurdly large ones clamp before the float→int
// conversion becomes platform-defined.
func targetOf(target float64) int64 {
	const maxTarget = int64(1) << 62
	if !(target >= 1) { // also catches NaN
		return 1
	}
	if target >= float64(maxTarget) {
		return maxTarget
	}
	return int64(target)
}

// pickTable is the piecewise-constant form of one layer's pick function:
// choices[k] is pick(t) for targets in [ts[k-1], ts[k]) with the implied
// ts[-1] = 1 and ts[len(ts)-1] extending to +∞. Adjacent equal segments
// are merged, so every boundary is a real decision change.
type pickTable struct {
	ts      []int64
	choices []int32
}

// pickEvent is one layer's decision boundary in the merged, t-sorted
// event list: for targets < t the layer picks before, at ≥ t it picks
// after. The walker applies events forward or backward as the target
// slides.
type pickEvent struct {
	t             int64
	layer         int32
	before, after int32
}

// minT returns the smallest t in [1, hi] satisfying the monotone
// predicate, or hi+1 if none does.
func minT(hi int64, pred func(int64) bool) int64 {
	lo := int64(1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if pred(lo) {
		return lo
	}
	return hi + 1
}

// buildPickTable computes the exact piecewise-constant form of lc.pick.
//
// pick(t) can change value only where one of its ingredients changes:
//
//   - a candidate enters the ±25% window (t + t/4 reaches its cycles) or
//     leaves it (t − t/4 passes its cycles) — both thresholds are
//     monotone in t and found by binary search; window membership also
//     fixes maxUtil and the utilization-eligibility set;
//   - the nearest-candidate fallback switches between neighbours — at
//     the candidates' cycles values and the midpoints between
//     consecutive ones (integer absDiff comparisons flip there);
//   - the in-window tie-break by |cycles − t| flips between two
//     candidates with equal channel-tile counts — at the pair's
//     midpoint. Only pairs within a 2x cycles ratio can ever share a
//     window (the window spans at most [3t/4, 5t/4], a 5/3 ratio), so
//     wider pairs are pruned.
//
// Every one of those boundaries is a function of cycle values alone (the
// tie-break ones of channel tiles too), and equal cycles give equal
// thresholds and never flip a tie. So the first two kinds are enumerated
// once per distinct cycle value and the tie-break midpoints once per
// pair of distinct (channel tiles, cycles) values: the same boundary set
// as one entry per candidate and candidate pair, from far fewer entries
// on lists with many equal-cycle candidates. pick is evaluated once per
// segment and equal neighbours are merged. The result is validated
// against direct pick evaluation by verifyDelta and the fuzz tests, and
// against the per-candidate enumeration by TestPickTableMatchesReference.
func buildPickTable(lc layerCands) pickTable {
	c := lc.cands
	if len(c) <= 1 {
		return pickTable{} // constant function, no boundaries
	}
	var bps []int64
	addBP := func(t int64) {
		if t >= 2 { // segment 0 starts at t = 1; boundaries below 2 are vacuous
			bps = append(bps, t)
		}
	}
	for j := range c {
		cy := c[j].cycles
		if j > 0 && c[j-1].cycles == cy {
			continue
		}
		// Window entry/exit thresholds.
		addBP(minT(max(cy+1, 1), func(t int64) bool { return t+t/4 >= cy }))
		addBP(minT(2*cy+8, func(t int64) bool { return t-t/4 > cy }))
		// sort.Search / nearest boundaries.
		addBP(cy)
		addBP(cy + 1)
		if j > 0 {
			mid := (c[j-1].cycles + cy) / 2
			addBP(mid)
			addBP(mid + 1)
		}
	}
	// Tie-break midpoints between window-compatible equal-tile pairs.
	type tileCycles struct {
		tiles  int
		cycles int64
	}
	tc := make([]tileCycles, len(c))
	for j := range c {
		tc[j] = tileCycles{c[j].chTiles, c[j].cycles}
	}
	slices.SortFunc(tc, func(a, b tileCycles) int {
		return cmp.Or(cmp.Compare(a.tiles, b.tiles), cmp.Compare(a.cycles, b.cycles))
	})
	tc = slices.Compact(tc)
	for j := range tc {
		for k := j + 1; k < len(tc) && tc[k].tiles == tc[j].tiles && tc[k].cycles <= 2*tc[j].cycles; k++ {
			mid := (tc[j].cycles + tc[k].cycles) / 2
			addBP(mid)
			addBP(mid + 1)
		}
	}
	slices.Sort(bps)
	bps = slices.Compact(bps)

	// Evaluate each segment once and merge equal neighbours.
	ts := make([]int64, 0, len(bps))
	choices := []int32{int32(lc.pick(1))}
	for _, t := range bps {
		ch := int32(lc.pick(t))
		if ch != choices[len(choices)-1] {
			ts = append(ts, t)
			choices = append(choices, ch)
		}
	}
	return pickTable{ts: ts, choices: choices}
}

// buildDeltaIndex precomputes every layer's pick table and flattens the
// boundaries into the search-wide sorted event list the walkers replay.
func (s *search) buildDeltaIndex() {
	tables := make([]pickTable, len(s.all))
	// A pick table is a pure function of the candidate list (channel
	// tiles are precomputed on each candidate), and shape-identical layers
	// share one cands slice (see newSearch) — so build one table per
	// distinct slice, keyed by its backing-array identity.
	keys := make([]*candidate, len(s.all))
	uniq := make(map[*candidate]int, len(s.all))
	var uniqIdx []int
	for i := range s.all {
		if lc := s.lcAt[i]; len(lc.cands) > 0 {
			keys[i] = &lc.cands[0]
		}
		if _, ok := uniq[keys[i]]; !ok {
			uniq[keys[i]] = i
			uniqIdx = append(uniqIdx, i)
		}
	}
	par.ForEach(len(uniqIdx), func(j int) {
		i := uniqIdx[j]
		tables[i] = buildPickTable(s.lcAt[i])
	})
	for i := range s.all {
		if j := uniq[keys[i]]; j != i {
			tables[i] = tables[j]
		}
	}
	total := 0
	for _, tb := range tables {
		total += len(tb.ts)
	}
	events := make([]pickEvent, 0, total)
	for i, tb := range tables {
		for k, t := range tb.ts {
			events = append(events, pickEvent{t: t, layer: int32(i), before: tb.choices[k], after: tb.choices[k+1]})
		}
	}
	// Sort by boundary then layer: deterministic, and same-t events touch
	// distinct layers so their application order is immaterial.
	slices.SortFunc(events, func(a, b pickEvent) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return int(a.layer - b.layer)
	})
	s.events = events
}

// walker slides a materialized argmin image along the unified-cycle
// target axis. Invariant: st equals s.argmin(float64(t)) — with
// bit-identical accumulators — and events[0..pos-1] are exactly the
// boundaries at or below t. moveTo costs O(boundaries crossed), so an SA
// move prices in O(changed layers) while a full rebuild would walk every
// layer's candidate list.
type walker struct {
	s   *search
	st  state
	t   int64
	pos int
}

// newWalker materializes the argmin image at the given target (one full
// from-scratch build; every subsequent move is incremental).
func (s *search) newWalker(target float64) *walker {
	t := targetOf(target)
	w := &walker{s: s, st: s.argmin(target), t: t}
	w.pos = sort.Search(len(s.events), func(i int) bool { return s.events[i].t > t })
	return w
}

// moveTo slides the image to a new target, applying only the pick
// boundaries crossed on the way.
func (w *walker) moveTo(target float64) {
	t := targetOf(target)
	s := w.s
	if t > w.t {
		for w.pos < len(s.events) && s.events[w.pos].t <= t {
			ev := s.events[w.pos]
			w.st.set(s, int(ev.layer), int(ev.after))
			w.pos++
		}
	} else if t < w.t {
		for w.pos > 0 && s.events[w.pos-1].t > t {
			ev := s.events[w.pos-1]
			w.st.set(s, int(ev.layer), int(ev.before))
			w.pos--
		}
	}
	w.t = t
}
