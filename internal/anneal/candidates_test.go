package anneal

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

// refFallback says which of genCandidates' fallbacks a reference run took.
type refFallback int

const (
	noFallback      refFallback = iota
	uncacheableOnly             // feasible candidates, none with a cacheable weight slice
	nothingFits                 // no feasible candidate at all
)

// pendingCand is one feasible partition awaiting pricing.
type pendingCand struct {
	part  atom.Partition
	task  engine.Task
	tiles int
}

// refGenCandidates is candidate generation in two passes: collect every
// feasible partition, price them all, then filter the priced list down to
// the cacheable candidates (keeping all of them when none is cacheable).
// genCandidates must return the same list. It also returns how many
// evaluations pricing only the kept candidates takes: those left before
// the utilization filter, plus the nothing-fits fallback's one.
func refGenCandidates(l *graph.Layer, cfg engine.Config, df engine.Dataflow, opt Options, orc cost.Oracle) ([]candidate, refFallback, int) {
	s := l.Shape
	var hs, ws, cs []int
	cq := cfg.PEy
	switch {
	case l.Kind == graph.OpDepthwiseConv:
		if df == engine.KCPartition {
			hs, ws = refSplitSizes(s.Ho, 1, maxSplits), refSplitSizes(s.Wo, 1, maxSplits)
		} else {
			hs, ws = refSplitSizes(s.Ho, cfg.PEx, maxSplits), refSplitSizes(s.Wo, cfg.PEy, maxSplits)
		}
		cs = refSplitSizes(s.Co, cq, maxSplits)
	case df == engine.KCPartition:
		hs, ws = refSplitSizes(s.Ho, 1, maxSplits), refSplitSizes(s.Wo, 1, maxSplits)
		cs = refSplitSizes(s.Co, cq, maxSplits)
	case df == engine.FlexPartition:
		hs, ws = refSplitSizes(s.Ho, 1, maxSplits), refSplitSizes(s.Wo, cfg.PEzOf(), maxSplits)
		cs = refSplitSizes(s.Co, cq, maxSplits)
	default:
		hs, ws = refSplitSizes(s.Ho, cfg.PEx, maxSplits), refSplitSizes(s.Wo, cfg.PEy, maxSplits)
		cs = refSplitSizes(s.Co, cq, maxSplits)
	}
	budget := int64(float64(cfg.BufferBytes) * bufferFraction)
	weightWindow := int64(4 * cfg.PEx * cfg.PEy * s.Kh * s.Kw)
	var pend []pendingCand
	for _, hp := range hs {
		for _, wp := range ws {
			for _, cp := range cs {
				p := atom.Partition{Hp: hp, Wp: wp, Cop: cp}
				tiles := p.Tiles(l)
				if tiles > opt.maxTiles() {
					continue
				}
				t := engine.TileTask(l, hp, wp, cp)
				w := t.WeightBytes()
				if w > weightWindow {
					w = weightWindow
				}
				if inputWindow(t)+t.OutputBytes()+w > budget {
					continue
				}
				pend = append(pend, pendingCand{part: p, task: t, tiles: tiles})
			}
		}
	}
	var cands []candidate
	for i := range pend {
		c := orc.Evaluate(cfg, df, pend[i].task)
		cands = append(cands, candidate{part: pend[i].part,
			cycles: c.Cycles, util: c.Utilization, tiles: pend[i].tiles,
			chTiles: channelTiles(l, pend[i].part.Cop)})
	}
	fb := noFallback
	if len(cands) > 0 {
		cacheable := cands[:0]
		limit := int64(cfg.BufferBytes) * 3 / 4
		for _, c := range cands {
			if engine.TileTask(l, c.part.Hp, c.part.Wp, c.part.Cop).WeightBytes() <= limit {
				cacheable = append(cacheable, c)
			}
		}
		if len(cacheable) > 0 {
			cands = cacheable
		} else {
			fb = uncacheableOnly
		}
	}
	kept := len(cands)
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
		fb = nothingFits
		kept++
		p := atom.Partition{Hp: min(s.Ho, cfg.PEx), Wp: min(s.Wo, cfg.PEy), Cop: s.Co}
		c := orc.Evaluate(cfg, df, engine.TileTask(l, p.Hp, p.Wp, p.Cop))
		cands = append(cands, candidate{part: p, cycles: c.Cycles, util: c.Utilization,
			tiles: p.Tiles(l), chTiles: channelTiles(l, p.Cop)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cycles < cands[j].cycles })
	return cands, fb, kept
}

// refSplitSizes is splitSizes with a set of seen sizes.
func refSplitSizes(n, q, maxSplits int) []int {
	if q <= 0 {
		q = 1
	}
	seen := make(map[int]bool)
	var sizes []int
	add := func(sz int) {
		if sz < 1 {
			sz = 1
		}
		if q > 1 {
			sz = ((sz + q - 1) / q) * q
		}
		if sz > n {
			sz = n
		}
		if !seen[sz] {
			seen[sz] = true
			sizes = append(sizes, sz)
		}
	}
	for k := 1; k*k <= n; k++ {
		add((n + k - 1) / k)
		add(k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > maxSplits {
		kept := append([]int(nil), sizes[:maxSplits-2]...)
		kept = append(kept, sizes[len(sizes)-2], sizes[len(sizes)-1])
		sizes = kept
	}
	return sizes
}

// TestSplitSizesMatchesReference compares splitSizes with the set-based
// reference over every extent up to 4096, quantized and not, at two caps.
func TestSplitSizesMatchesReference(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		for _, q := range []int{1, 16} {
			for _, cap := range []int{8, 10} {
				if got, want := splitSizes(n, q, cap), refSplitSizes(n, q, cap); !slices.Equal(got, want) {
					t.Fatalf("splitSizes(%d, %d, %d) = %v, want %v", n, q, cap, got, want)
				}
			}
		}
	}
}

// TestGenCandidatesMatchesReference checks that pricing in the
// enumeration loop yields the reference's list, in the same order, after
// exactly one evaluation per kept candidate, for every distinct compute
// layer of the zoo under KC-P, YX-P and Flex-P. A small-buffer engine
// reaches both fallbacks: layers whose feasible candidates are all
// uncacheable, and layers where nothing fits.
func TestGenCandidatesMatchesReference(t *testing.T) {
	small := func(c engine.Config) engine.Config {
		c.BufferBytes = 16 << 10
		return c
	}
	engines := []struct {
		name string
		df   engine.Dataflow
		cfg  engine.Config
	}{
		{"default", engine.KCPartition, engine.Default()},
		{"default", engine.YXPartition, engine.Default()},
		{"default", engine.FlexPartition, engine.FlexDefault()},
		{"small", engine.KCPartition, small(engine.Default())},
		{"small", engine.YXPartition, small(engine.Default())},
		{"small", engine.FlexPartition, small(engine.FlexDefault())},
	}
	type layerKey struct {
		kind  graph.OpKind
		shape graph.Shape
	}
	var layers []*graph.Layer
	seen := map[layerKey]bool{}
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		for _, lid := range g.ComputeLayers() {
			l := g.Layer(lid)
			if k := (layerKey{l.Kind, l.Shape}); !seen[k] {
				seen[k] = true
				layers = append(layers, l)
			}
		}
	}
	reached := map[refFallback]int{}
	for _, e := range engines {
		name := fmt.Sprintf("%s/%v", e.name, e.df)
		for _, l := range layers {
			orc := cost.NewInstrumented(cost.Direct{})
			got := genCandidates(l, e.cfg, e.df, Options{}, orc)
			want, fb, evals := refGenCandidates(l, e.cfg, e.df, Options{}, cost.Direct{})
			reached[fb]++
			if !slices.Equal(got, want) {
				t.Fatalf("%s layer %s: candidates differ from the reference:\n got %+v\nwant %+v", name, l.Name, got, want)
			}
			if g := orc.Stats().Evaluations; g != int64(evals) {
				t.Fatalf("%s layer %s: %d evaluations, want one per kept candidate: %d", name, l.Name, g, evals)
			}
		}
	}
	t.Logf("%d distinct layers; fallbacks reached: %d uncacheable-only, %d nothing-fits",
		len(layers), reached[uncacheableOnly], reached[nothingFits])
	if reached[uncacheableOnly] == 0 || reached[nothingFits] == 0 {
		t.Errorf("fallbacks reached: %d uncacheable-only, %d nothing-fits; want both", reached[uncacheableOnly], reached[nothingFits])
	}
}
