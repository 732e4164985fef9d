package anneal

import "math/bits"

// This file scores the search's moves. Algorithm 1 scores ~MaxIters
// candidate states, and each one is the argmin image of a shifted
// unified-cycle target, so a score is a pure function of that target.
// Two observations make it cheap without materializing the state:
//
//   - accum: exact integer sums S1 = Σ cycles and S2 = Σ cycles² over the
//     state's energy-participating layers. Integer addition is
//     associative and commutative, so the sums are order- and
//     grouping-independent by construction, and mean/variance are derived
//     from them in one deterministic float expression.
//
//   - groups: layers with the same (kind, shape) share one candidate list
//     (see newSearch), and pick is a pure function of the list and the
//     target. score picks once per distinct list and folds the choice in
//     with the list's multiplicity, so a move costs one pick per distinct
//     list (23 on ResNet-50 under KC-P, 15 on the 1,026-layer
//     deepchain1k) instead of one per layer.
//
// score is cross-checked against the from-scratch argmin by the tests in
// delta_test.go: verifyScore, installed as the Options.verify hook,
// checks every scored target of whole searches.

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

// addN folds m layers of c cycles each into the sums: exactly m calls
// of add(c), in one step.
func (a *accum) addN(c, m int64) {
	a.s1 += c * m
	hi, lo := bits.Mul64(uint64(c), uint64(c))
	mhi, lo := bits.Mul64(lo, uint64(m))
	hi = hi*uint64(m) + mhi
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

// pickGroup is one distinct candidate list of the energy layers and the
// number of layers sharing it.
type pickGroup struct {
	lc *layerCands
	n  int64
}

// score returns the unified cycle S (mean) and energy E (variance) of
// argmin(target) without materializing it: one pick per distinct
// candidate list, folded in with the list's multiplicity. The integer
// sums equal argmin(target).acc, so the floats are bit-identical.
func (s *search) score(target float64) (mean, variance float64) {
	return s.accumAt(targetOf(target)).meanVariance()
}

// accumAt is score's exact accumulator at integer target t.
func (s *search) accumAt(t int64) accum {
	a := accum{n: s.nOrder}
	for _, g := range s.groups {
		a.addN(g.lc.cands[g.lc.pick(t)].cycles, g.n)
	}
	return a
}
