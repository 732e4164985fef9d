package anneal

import (
	"math"
	"math/rand"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

func testSearch(t testing.TB, model string) *search {
	t.Helper()
	g := models.MustBuild(model)
	return newSearch(g, engine.Default(), engine.KCPartition, Options{})
}

// TestAccumApplyRevert is the delta-machinery property test: a random
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

// TestWalkerMatchesArgmin drives a walker through random target jumps —
// large and small, up and down, including sub-1 and enormous targets —
// and demands exact agreement with the from-scratch argmin at every stop.
func TestWalkerMatchesArgmin(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell", "mobilenetv2"} {
		t.Run(model, func(t *testing.T) {
			s := testSearch(t, model)
			rng := rand.New(rand.NewSource(23))
			w := s.newWalker(100)
			s.verifyDelta(w, 100)
			for step := 0; step < 400; step++ {
				var target float64
				switch step % 4 {
				case 0: // local jitter, the SA-typical move
					target = float64(w.t) * (0.8 + 0.4*rng.Float64())
				case 1: // wide jump
					target = math.Exp(rng.Float64() * 20)
				case 2: // tiny / degenerate
					target = rng.Float64() * 2
				default: // exact integer boundaries
					target = float64(1 + rng.Int63n(1<<20))
				}
				w.moveTo(target)
				s.verifyDelta(w, target)
			}
		})
	}
}

// TestPickTableExhaustive sweeps every integer target in [1, 4·max
// cycles] for a small model and checks the table-driven segments against
// direct pick evaluation — no sampling, every boundary placement proven.
func TestPickTableExhaustive(t *testing.T) {
	s := testSearch(t, "tinyconv")
	for i := range s.all {
		lc := s.lcAt[i]
		if len(lc.cands) <= 1 {
			continue // constant pick, empty table by construction
		}
		tb := buildPickTable(lc)
		maxCy := lc.cands[len(lc.cands)-1].cycles
		for _, c := range lc.cands {
			if c.cycles > maxCy {
				maxCy = c.cycles
			}
		}
		hi := 4 * maxCy
		if hi > 1<<22 {
			hi = 1 << 22
		}
		seg := 0
		for target := int64(1); target <= hi; target++ {
			for seg < len(tb.ts) && tb.ts[seg] <= target {
				seg++
			}
			if got, want := int(tb.choices[seg]), lc.pick(target); got != want {
				t.Fatalf("layer %d target %d: table picks %d, pick() %d", s.all[i], target, got, want)
			}
		}
	}
}

// TestSAWithVerifyDelta runs full searches — single-chain and portfolio —
// under the cross-checking harness: every move of every chain is
// compared against a from-scratch recomputation.
func TestSAWithVerifyDelta(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch"} {
		g := models.MustBuild(model)
		SA(g, engine.Default(), engine.KCPartition,
			Options{MaxIters: 150, Seed: 9, VerifyDelta: true})
		SA(g, engine.Default(), engine.KCPartition,
			Options{MaxIters: 150, Seed: 9, Chains: 3, VerifyDelta: true})
		SA(g, engine.Default(), engine.KCPartition,
			Options{MaxIters: 100, Seed: 9, Chains: 3, VerifyDelta: true})
	}
}

// TestVerifyDeltaNeutral: the harness must never change the trajectory.
func TestVerifyDeltaNeutral(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	plain := SA(g, engine.Default(), engine.KCPartition, Options{MaxIters: 120, Seed: 4})
	checked := SA(g, engine.Default(), engine.KCPartition, Options{MaxIters: 120, Seed: 4, VerifyDelta: true})
	if plain.FinalVar != checked.FinalVar || plain.MeanCycle != checked.MeanCycle || plain.Iters != checked.Iters {
		t.Errorf("VerifyDelta perturbed the search: %v/%v/%d vs %v/%v/%d",
			plain.FinalVar, plain.MeanCycle, plain.Iters,
			checked.FinalVar, checked.MeanCycle, checked.Iters)
	}
}

// FuzzMoveSequence feeds arbitrary byte strings as walker move sequences:
// each pair of bytes encodes one target jump (direction, magnitude). The
// walker must agree exactly with the from-scratch argmin after every jump
// and the accumulators must match a full rebuild.
func FuzzMoveSequence(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xff, 0x80, 0x10, 0x42})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00})
	f.Add([]byte{0x7f, 0x20, 0x9c, 0x03, 0xee, 0x51, 0x08})
	s := func() *search {
		g := models.MustBuild("tinybranch")
		return newSearch(g, engine.Default(), engine.KCPartition, Options{})
	}()
	f.Fuzz(func(t *testing.T, seq []byte) {
		w := s.newWalker(64)
		target := 64.0
		for i := 0; i+1 < len(seq); i += 2 {
			// Byte 0 scales a multiplicative step in [x1/8, x8); byte 1
			// adds jitter so boundaries land on odd offsets too.
			factor := math.Exp((float64(seq[i])/255*2 - 1) * math.Ln2 * 3)
			target = target*factor + float64(seq[i+1]) - 128
			w.moveTo(target)
			s.verifyDelta(w, target)
			if got := s.accumOf(w.st); got != w.st.acc {
				t.Fatalf("move %d (target %g): accum %+v != rebuilt %+v", i/2, target, w.st.acc, got)
			}
		}
	})
}
