package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

func testSearch(t testing.TB, model string) *search {
	t.Helper()
	g := models.MustBuild(model)
	return newSearch(g, engine.Default(), engine.KCPartition, Options{})
}

// TestAccumApplyRevert is the accumulator property test: a random
// sequence of set() calls — including reverts back to earlier choices —
// must leave the state's accumulators integer-identical to a from-scratch
// rebuild. Exactness, not approximation: accum is integer arithmetic, so
// any drift at all is a bug.
func TestAccumApplyRevert(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell"} {
		t.Run(model, func(t *testing.T) {
			s := testSearch(t, model)
			rng := rand.New(rand.NewSource(11))
			st := s.randomState(rng)
			if got := s.accumOf(st); got != st.acc {
				t.Fatalf("randomState accum %+v != rebuilt %+v", st.acc, got)
			}
			// Interleave applies with exact reverts of the previous move.
			type move struct{ i, old int }
			var undo []move
			for step := 0; step < 2000; step++ {
				if len(undo) > 0 && rng.Intn(3) == 0 {
					m := undo[len(undo)-1]
					undo = undo[:len(undo)-1]
					st.set(s, m.i, m.old)
				} else {
					i := rng.Intn(len(s.all))
					undo = append(undo, move{i, st.choice[i]})
					st.set(s, i, rng.Intn(len(s.lcAt[i].cands)))
				}
				if step%97 == 0 {
					if got := s.accumOf(st); got != st.acc {
						t.Fatalf("step %d: incremental accum %+v != rebuilt %+v", step, st.acc, got)
					}
				}
			}
			// Unwind everything: the state must return to its exact origin.
			for len(undo) > 0 {
				m := undo[len(undo)-1]
				undo = undo[:len(undo)-1]
				st.set(s, m.i, m.old)
			}
			if got := s.accumOf(st); got != st.acc {
				t.Fatalf("after full unwind: incremental accum %+v != rebuilt %+v", st.acc, got)
			}
		})
	}
}

// TestAccumMeanVariance checks the 128-bit variance derivation against a
// widened two-pass float computation on adversarial cycle sets (huge,
// near-equal values whose naive E[x²]−mean² cancels catastrophically).
func TestAccumMeanVariance(t *testing.T) {
	cases := [][]int64{
		{},
		{5},
		{1, 1, 1, 1},
		{1, 2, 3, 4, 5},
		{1 << 39, 1<<39 + 1, 1<<39 + 2},
		{999999999999, 999999999998, 1000000000000},
	}
	for _, cycles := range cases {
		var a accum
		a.n = len(cycles)
		for _, c := range cycles {
			a.add(c)
		}
		mean, variance := a.meanVariance()
		var wantMean, wantVar float64
		if n := len(cycles); n > 0 {
			var sum float64
			for _, c := range cycles {
				sum += float64(c)
			}
			wantMean = sum / float64(n)
			for _, c := range cycles {
				d := float64(c) - wantMean
				wantVar += d * d
			}
			wantVar /= float64(n)
		}
		if !ulpClose(mean, wantMean) {
			t.Errorf("cycles %v: mean = %v, want %v", cycles, mean, wantMean)
		}
		// The two-pass float reference itself rounds, so allow a loose
		// relative tolerance; the exact-integer path is the ground truth.
		if d := variance - wantVar; math.Abs(d) > 1e-6*(wantVar+1) {
			t.Errorf("cycles %v: variance = %v, want ~%v", cycles, variance, wantVar)
		}
		if variance < 0 {
			t.Errorf("cycles %v: negative variance %v", cycles, variance)
		}
	}
}

// refPick is the full-scan picker, the executable specification of
// layerCands.pick: it scans every candidate for the ±25% window and
// derives channel tiles from the layer instead of the precomputed field.
func refPick(lc layerCands, target int64) int {
	c := lc.cands
	i := sort.Search(len(c), func(i int) bool { return c[i].cycles >= target })
	nearest := i
	if i == len(c) {
		nearest = len(c) - 1
	} else if i > 0 && target-c[i-1].cycles <= c[i].cycles-target {
		nearest = i - 1
	}
	lo, hi := target-target/4, target+target/4
	maxUtil := 0.0
	for j := range c {
		if c[j].cycles >= lo && c[j].cycles <= hi && c[j].util > maxUtil {
			maxUtil = c[j].util
		}
	}
	best, bestTiles := -1, 0
	for j := range c {
		if c[j].cycles < lo || c[j].cycles > hi || c[j].util < 0.9*maxUtil {
			continue
		}
		ct := channelTiles(lc.layer, c[j].part.Cop)
		if best < 0 || ct < bestTiles ||
			(ct == bestTiles && absDiff(c[j].cycles, target) < absDiff(c[best].cycles, target)) {
			best, bestTiles = j, ct
		}
	}
	if best >= 0 {
		return best
	}
	return nearest
}

// refBuildPickTable is the per-candidate boundary enumeration of
// refPick's piecewise-constant form: it returns every target t ≥ 2 at
// which refPick(t) differs from refPick(t−1). Candidates are six
// boundaries per candidate plus two per equal-tile pair within 2x, each
// segment priced by refPick and equal neighbours merged.
func refBuildPickTable(lc layerCands) []int64 {
	c := lc.cands
	m := len(c)
	if m <= 1 {
		return nil
	}
	var bps []int64
	addBP := func(t int64) {
		if t >= 2 {
			bps = append(bps, t)
		}
	}
	tiles := make([]int, m)
	for j := range c {
		tiles[j] = channelTiles(lc.layer, c[j].part.Cop)
	}
	for j := range c {
		cy := c[j].cycles
		hi := cy + 1
		if hi < 1 {
			hi = 1
		}
		addBP(minT(hi, func(t int64) bool { return t+t/4 >= cy }))
		addBP(minT(2*cy+8, func(t int64) bool { return t-t/4 > cy }))
		addBP(cy)
		addBP(cy + 1)
		if j > 0 {
			mid := (c[j-1].cycles + cy) / 2
			addBP(mid)
			addBP(mid + 1)
		}
		for k := j + 1; k < m && c[k].cycles <= 2*cy; k++ {
			if tiles[k] != tiles[j] {
				continue
			}
			mid := (cy + c[k].cycles) / 2
			addBP(mid)
			addBP(mid + 1)
		}
	}
	slices.Sort(bps)
	bps = slices.Compact(bps)
	var ts []int64
	prev := refPick(lc, 1)
	for _, t := range bps {
		if ch := refPick(lc, t); ch != prev {
			ts = append(ts, t)
			prev = ch
		}
	}
	return ts
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

// boundaryTargets returns every refBuildPickTable boundary of lc and
// its neighbours ±1, plus target 1: the targets where a mis-placed
// window edge, nearest fallback or tie-break would show.
func boundaryTargets(lc layerCands) []int64 {
	ts := []int64{1}
	for _, b := range refBuildPickTable(lc) {
		ts = append(ts, b-1, b, b+1)
	}
	return ts
}

// engineShapes are the default engine and two reshaped ones (a wide
// array with a big buffer, and a small 3-D array) the reference tests
// run every zoo model on.
func engineShapes() []struct {
	name string
	cfg  engine.Config
} {
	big := engine.Default()
	big.PEx, big.PEy, big.BufferBytes = 32, 32, 256<<10
	flex := engine.Default()
	flex.PEx, flex.PEy, flex.PEz, flex.BufferBytes = 8, 8, 4, 64<<10
	return []struct {
		name string
		cfg  engine.Config
	}{{"default", engine.Default()}, {"32x32-256KB", big}, {"8x8x4-64KB", flex}}
}

// forEachZooSearch runs fn on the search of every zoo model under every
// dataflow and engine shape, as a subtest.
func forEachZooSearch(t *testing.T, fn func(t *testing.T, s *search)) {
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		for _, c := range engineShapes() {
			for _, df := range []engine.Dataflow{engine.KCPartition, engine.YXPartition, engine.FlexPartition} {
				t.Run(fmt.Sprintf("%s/%s/%v", model, c.name, df), func(t *testing.T) {
					fn(t, newSearch(g, c.cfg, df, Options{}))
				})
			}
		}
	}
}

// checkScore compares score at target against the from-scratch argmin:
// integer-identical accumulators and bit-identical floats.
func checkScore(t testing.TB, s *search, target float64) {
	t.Helper()
	ref := s.argmin(target)
	if got := s.accumAt(targetOf(target)); got != ref.acc {
		t.Fatalf("target %g: score accum %+v, argmin %+v", target, got, ref.acc)
	}
	m, v := s.score(target)
	rm, rv := ref.acc.meanVariance()
	if math.Float64bits(m) != math.Float64bits(rm) || math.Float64bits(v) != math.Float64bits(rv) {
		t.Fatalf("target %g: score (S=%v, E=%v), argmin (S=%v, E=%v)", target, m, v, rm, rv)
	}
}

// TestScoreMatchesArgmin pins score to the from-scratch argmin on every
// zoo model × {KC-P, YX-P, Flex-P} × three engine shapes: at every
// reference pick boundary ±1 of every distinct candidate list, and at
// random targets — local jitter, wide jumps, sub-1 and enormous ones.
func TestScoreMatchesArgmin(t *testing.T) {
	forEachZooSearch(t, func(t *testing.T, s *search) {
		for _, g := range s.groups {
			for _, tt := range boundaryTargets(*g.lc) {
				if tt >= 1 {
					checkScore(t, s, float64(tt))
				}
			}
		}
		rng := rand.New(rand.NewSource(23))
		for step := 0; step < 100; step++ {
			var target float64
			switch step % 4 {
			case 0: // local jitter around a typical cycle count
				target = float64(s.groups[0].lc.cands[0].cycles) * (0.8 + 0.4*rng.Float64())
			case 1: // wide jump
				target = math.Exp(rng.Float64() * 20)
			case 2: // tiny / degenerate
				target = rng.Float64() * 2
			default: // beyond any cycle count, up to the clamp
				target = math.Exp(20 + rng.Float64()*30)
			}
			checkScore(t, s, target)
		}
	})
}

// checkPick compares the production picker with the reference at every
// reference boundary ±1 of one candidate list.
func checkPick(t *testing.T, name string, lc layerCands) {
	t.Helper()
	for _, target := range boundaryTargets(lc) {
		if target >= 1 && lc.pick(target) != refPick(lc, target) {
			t.Fatalf("%s target %d: pick %d, reference %d", name, target, lc.pick(target), refPick(lc, target))
		}
	}
}

// TestPickMatchesReference pins the windowed picker to the full-scan
// reference: at every integer target up to 4× the largest cycle count of
// every tinyconv list; at every reference boundary ±1 of every distinct
// zoo list under every dataflow and engine shape; and on synthetic lists
// built to stress the rep deduplication — repeated cycle values, equal
// cycles with different utilization or channel tiles, and cycles near
// 2^40.
func TestPickMatchesReference(t *testing.T) {
	t.Run("tinyconv-exhaustive", func(t *testing.T) {
		s := testSearch(t, "tinyconv")
		for i, lc := range s.lcAt {
			hi := min64(4*lc.cands[len(lc.cands)-1].cycles, 1<<22)
			for target := int64(1); target <= hi; target++ {
				if got, want := lc.pick(target), refPick(lc, target); got != want {
					t.Fatalf("layer %d target %d: pick %d, reference %d", s.all[i], target, got, want)
				}
			}
		}
	})
	forEachZooSearch(t, func(t *testing.T, s *search) {
		seen := map[*candidate]bool{}
		for i, lc := range s.lcAt {
			if !seen[&lc.cands[0]] {
				seen[&lc.cands[0]] = true
				checkPick(t, fmt.Sprintf("layer %d", s.all[i]), lc)
			}
		}
	})
	t.Run("synthetic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		layer := &graph.Layer{Shape: graph.Shape{Co: 512}}
		utils := []float64{1, 0.95, 0.9, 0.85, 0.6}
		cops := []int{16, 32, 64, 128, 512}
		for trial := 0; trial < 600; trial++ {
			var base, spread int64
			switch trial % 3 {
			case 0: // small cycles: heavy duplication, boundaries near 1
				base, spread = 1, 40
			case 1: // typical atom sizes
				base, spread = 1000, 4000
			default: // near the accumulator's 2^40 ceiling
				base, spread = 1<<40-1<<20, 1<<19
			}
			// A small pool of values forces equal cycles with different
			// utilization and channel tiles.
			pool := make([]int64, 1+rng.Intn(12))
			for k := range pool {
				pool[k] = base + rng.Int63n(spread)
			}
			cands := make([]candidate, 2+rng.Intn(40))
			for k := range cands {
				cop := cops[rng.Intn(len(cops))]
				cands[k] = candidate{
					part:    atom.Partition{Cop: cop},
					cycles:  pool[rng.Intn(len(pool))],
					util:    utils[rng.Intn(len(utils))],
					chTiles: channelTiles(layer, cop),
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].cycles < cands[j].cycles })
			checkPick(t, fmt.Sprintf("trial %d", trial), newLayerCands(layer, cands))
		}
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestAccumAddN: addN(c, m) leaves the sums exactly where m calls of
// add(c) do, from zero and from a nonzero start (so the low-limb carry
// into s2hi is exercised), for cycles up to 2^40 and multiplicities up
// to 2^12.
func TestAccumAddN(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		c := rng.Int63n(1 << (1 + rng.Intn(40)))
		m := 1 + rng.Int63n(1<<(rng.Intn(13)))
		var start accum
		if trial%2 == 1 {
			start.add(1<<40 - 1 - rng.Int63n(1<<20))
			start.add(rng.Int63n(1 << 40))
		}
		got, want := start, start
		got.addN(c, m)
		for k := int64(0); k < m; k++ {
			want.add(c)
		}
		if got != want {
			t.Fatalf("addN(%d, %d) from %+v = %+v, %d adds give %+v", c, m, start, got, m, want)
		}
	}
}

// TestSAWithVerifyScore runs full searches — one chain and several —
// under the cross-checking harness: every scored target of every chain
// and of the polish sweep is compared against a from-scratch argmin.
func TestSAWithVerifyScore(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch"} {
		g := models.MustBuild(model)
		for _, df := range []engine.Dataflow{engine.KCPartition, engine.YXPartition} {
			SA(g, engine.Default(), df,
				Options{MaxIters: 150, Seed: 9, verify: (*search).verifyScore})
			SA(g, engine.Default(), df,
				Options{MaxIters: 150, Seed: 9, Chains: 3, verify: (*search).verifyScore})
			SA(g, engine.Default(), df,
				Options{MaxIters: 100, Seed: 9, Chains: 3, verify: (*search).verifyScore})
		}
	}
}

// TestZooVerifyScore runs the search of every zoo model at the full
// profile of the root determinism matrix (seed 1, 200 iterations, 128
// tiles per layer, the default engine) with one chain and with three,
// cross-checking every scored target.
func TestZooVerifyScore(t *testing.T) {
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		for _, chains := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/chains%d", model, chains), func(t *testing.T) {
				SA(g, engine.Default(), engine.KCPartition, Options{MaxIters: 200, Seed: 1,
					MaxTilesPerLay: 128, Chains: chains, verify: (*search).verifyScore})
			})
		}
	}
}

// TestVerifyScoreNeutral: the harness must never change the trajectory.
func TestVerifyScoreNeutral(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	plain := SA(g, engine.Default(), engine.KCPartition, Options{MaxIters: 120, Seed: 4})
	checked := SA(g, engine.Default(), engine.KCPartition, Options{MaxIters: 120, Seed: 4, verify: (*search).verifyScore})
	if plain.FinalVar != checked.FinalVar || plain.MeanCycle != checked.MeanCycle || plain.Iters != checked.Iters {
		t.Errorf("verifyScore perturbed the search: %v/%v/%d vs %v/%v/%d",
			plain.FinalVar, plain.MeanCycle, plain.Iters,
			checked.FinalVar, checked.MeanCycle, checked.Iters)
	}
}

// FuzzScore feeds arbitrary byte strings as target sequences: each pair
// of bytes encodes one jump (a multiplicative step and an additive
// jitter). score must agree exactly with the from-scratch argmin at
// every target.
func FuzzScore(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xff, 0x80, 0x10, 0x42})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00})
	f.Add([]byte{0x7f, 0x20, 0x9c, 0x03, 0xee, 0x51, 0x08})
	s := func() *search {
		g := models.MustBuild("tinybranch")
		return newSearch(g, engine.Default(), engine.KCPartition, Options{})
	}()
	f.Fuzz(func(t *testing.T, seq []byte) {
		target := 64.0
		for i := 0; i+1 < len(seq); i += 2 {
			// Byte 0 scales a multiplicative step in [x1/8, x8); byte 1
			// adds jitter so boundaries land on odd offsets too.
			factor := math.Exp((float64(seq[i])/255*2 - 1) * math.Ln2 * 3)
			target = target*factor + float64(seq[i+1]) - 128
			checkScore(t, s, target)
		}
	})
}

// verifyScore cross-checks one scored target against the from-scratch
// reference: the argmin image rebuilt by direct pick evaluation must
// score bit-identically. Any divergence is a bug in the grouped scoring
// (a miscounted multiplicity, a drifted accumulator), never a legitimate
// outcome, so it panics. Installed as the Options.verify hook by the
// tests above; TestZooVerifyScore runs it over the whole zoo.
func (s *search) verifyScore(target, mean, variance float64) {
	rm, rv := s.argmin(target).acc.meanVariance()
	if math.Float64bits(mean) != math.Float64bits(rm) || math.Float64bits(variance) != math.Float64bits(rv) {
		panic(fmt.Sprintf(
			"anneal: score divergence at target %g: scored (S=%v, E=%v), argmin (S=%v, E=%v)",
			target, mean, variance, rm, rv))
	}
}

// ulpClose reports whether two float64s agree to ~ulp scale (relative
// 1e-12, matching a couple of rounding steps at double precision).
func ulpClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	} else if -b > m {
		m = -b
	}
	return d <= 1e-12*m
}

// accumOf rebuilds a state's accumulators from scratch — the reference
// the property tests compare incremental results against.
func (s *search) accumOf(st state) accum {
	a := accum{n: s.nOrder}
	for i := 0; i < s.nOrder; i++ {
		a.add(s.lcAt[i].cands[st.choice[i]].cycles)
	}
	return a
}
