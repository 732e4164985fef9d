package buffer

import (
	"testing"
	"testing/quick"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// TestCapacityInvariantProperty replays random configurations and checks
// the core safety property of Algorithm 3: no engine's resident bytes
// ever exceed its capacity, across every Round.
func TestCapacityInvariantProperty(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 2, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 4, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	f := func(capRaw uint16) bool {
		capacity := int64(capRaw)*64 + 512 // 512 B .. ~4.2 MB
		m, err := New(d, s, 4, capacity)
		if err != nil {
			return false
		}
		for rt := range s.Rounds {
			p := make(PlacementMap)
			for i, id := range s.Rounds[rt].Atoms {
				p[id] = i
			}
			if _, err := m.ExecuteRound(rt, p); err != nil {
				return false
			}
			for e := 0; e < 4; e++ {
				if m.used[e] > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestConservationProperty: for any capacity, the bytes a consumer reads
// (on-chip + DRAM) must cover every dependency edge exactly once — data
// is never silently dropped or double-counted.
func TestConservationProperty(t *testing.T) {
	g := models.MustBuild("tinybranch")
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 2, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 4, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	var wantInput int64
	for id := range d.Atoms {
		_, bytes, _ := d.Deps(id)
		for _, b := range bytes {
			wantInput += b
		}
	}
	f := func(capRaw uint16) bool {
		capacity := int64(capRaw)*128 + 1024
		m, err := New(d, s, 4, capacity)
		if err != nil {
			return false
		}
		var total int64
		for rt := range s.Rounds {
			p := make(PlacementMap)
			for i, id := range s.Rounds[rt].Atoms {
				p[id] = i
			}
			io, err := m.ExecuteRound(rt, p)
			if err != nil {
				return false
			}
			total += io.InputBytesTotal
			if io.InputBytesOnChip > io.InputBytesTotal {
				return false
			}
		}
		return total == wantInput
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWriteOnceProperty: an atom's output is written back to DRAM at most
// once regardless of how many times eviction pressure hits it.
func TestWriteOnceProperty(t *testing.T) {
	g := models.MustBuild("tinyconv")
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 3, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 2, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny buffer maximizes eviction churn.
	m, err := New(d, s, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for rt := range s.Rounds {
		p := make(PlacementMap)
		for i, id := range s.Rounds[rt].Atoms {
			p[id] = i
		}
		io, err := m.ExecuteRound(rt, p)
		if err != nil {
			t.Fatal(err)
		}
		for e := range io.DRAMWriteBytes {
			written += io.DRAMWriteBytes[e]
		}
	}
	// Upper bound: every atom written exactly once.
	var allOut int64
	for _, a := range d.Atoms {
		allOut += a.OutputBytes()
	}
	if written > allOut {
		t.Errorf("wrote %d bytes > one copy of all outputs (%d)", written, allOut)
	}
}
