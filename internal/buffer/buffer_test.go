package buffer

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// ExecuteRound replays Round t into a fresh RoundIO.
func (m *Manager) ExecuteRound(t int, placement Placement) (RoundIO, error) {
	var io RoundIO
	err := m.ExecuteRoundInto(t, placement, &io)
	return io, err
}

// pipeline builds DAG + schedule for a model and returns them.
func pipeline(t *testing.T, model string, batch, engines int) (*atom.DAG, *schedule.Schedule) {
	t.Helper()
	g := models.MustBuild(model)
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: engines, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// PlacementMap adapts a plain atom→engine map to Placement.
type PlacementMap map[int]int

// Engine implements Placement; absent atoms report -1.
func (p PlacementMap) Engine(id int) int {
	e, ok := p[id]
	if !ok {
		return -1
	}
	return e
}

// naivePlacement maps round atoms to engines 0..n-1 in order.
func naivePlacement(s *schedule.Schedule, t int) PlacementMap {
	p := make(PlacementMap)
	for i, id := range s.Rounds[t].Atoms {
		p[id] = i
	}
	return p
}

// replay executes all rounds and accumulates IO.
func replay(t *testing.T, d *atom.DAG, s *schedule.Schedule, engines int, capacity int64) (RoundIO, *Manager) {
	t.Helper()
	m, err := New(d, s, engines, capacity)
	if err != nil {
		t.Fatal(err)
	}
	var total RoundIO
	total.DRAMReadBytes = make([]int64, engines)
	total.DRAMWriteBytes = make([]int64, engines)
	total.SRAMReadBytes = make([]int64, engines)
	total.SRAMWriteBytes = make([]int64, engines)
	for rt := range s.Rounds {
		io, err := m.ExecuteRound(rt, naivePlacement(s, rt))
		if err != nil {
			t.Fatalf("round %d: %v", rt, err)
		}
		for e := 0; e < engines; e++ {
			total.DRAMReadBytes[e] += io.DRAMReadBytes[e]
			total.DRAMWriteBytes[e] += io.DRAMWriteBytes[e]
			total.SRAMReadBytes[e] += io.SRAMReadBytes[e]
			total.SRAMWriteBytes[e] += io.SRAMWriteBytes[e]
		}
		total.Groups = append(total.Groups, io.Groups...)
		total.FlowCount += io.FlowCount
		total.FlowBytes += io.FlowBytes
		total.InputBytesTotal += io.InputBytesTotal
		total.InputBytesOnChip += io.InputBytesOnChip
	}
	return total, m
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func TestLargeBufferMostlyOnChip(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	io, m := replay(t, d, s, 4, 16<<20) // 16 MB: everything fits
	if m.Evictions() != 0 {
		t.Errorf("evictions = %d with a 16 MB buffer", m.Evictions())
	}
	// All inter-layer inputs served on-chip except fetches of the raw
	// network input (produced by the virtual input atom in DRAM).
	inputLayerBytes := inputDepBytes(d)
	if got := io.InputBytesTotal - io.InputBytesOnChip; got != inputLayerBytes {
		t.Errorf("off-chip input bytes = %d, want %d (network input only)", got, inputLayerBytes)
	}
}

func TestTinyBufferEvicts(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	ioBig, _ := replay(t, d, s, 4, 16<<20)
	ioTiny, mTiny := replay(t, d, s, 4, 4<<10) // 4 KB
	if mTiny.Evictions() == 0 {
		t.Error("no evictions with a 4 KB buffer")
	}
	if sum(ioTiny.DRAMReadBytes) <= sum(ioBig.DRAMReadBytes) {
		t.Errorf("tiny-buffer DRAM reads %d should exceed big-buffer %d",
			sum(ioTiny.DRAMReadBytes), sum(ioBig.DRAMReadBytes))
	}
	if ioTiny.InputBytesOnChip > ioBig.InputBytesOnChip {
		t.Error("tiny buffer should not increase on-chip reuse")
	}
}

func TestHighWaterTracksOccupancy(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	_, m := replay(t, d, s, 4, 16<<20)
	hw := m.HighWater()
	if hw <= 0 {
		t.Fatal("no occupancy recorded")
	}
	if hw > m.Capacity() {
		t.Fatalf("high-water %d exceeds capacity %d", hw, m.Capacity())
	}
	// A tighter buffer can never raise the high-water mark.
	_, mTiny := replay(t, d, s, 4, 4<<10)
	if mTiny.HighWater() > 4<<10 {
		t.Errorf("tiny-buffer high-water %d exceeds its capacity", mTiny.HighWater())
	}
}

func TestWeightCaching(t *testing.T) {
	// Same-layer atoms scheduled over consecutive rounds on one engine
	// with identical co-ranges must fetch weights once.
	g := graph.New("wc")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 8, Wo: 8, Co: 8})
	c := g.AddLayer("c", graph.OpConv, graph.ConvShape(8, 8, 8, 8, 3, 1, 1), in)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := atom.Spec{c: {Hp: 2, Wp: 8, Cop: 8}} // 4 atoms, same weights
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 1, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(d, s, 1, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	var weightReads int64
	for rt := range s.Rounds {
		io, err := m.ExecuteRound(rt, naivePlacement(s, rt))
		if err != nil {
			t.Fatal(err)
		}
		weightReads += io.DRAMReadBytes[0]
	}
	// Weight slice = 8*8*3*3 = 576 bytes, fetched once; plus input
	// fetches from DRAM.
	wantWeights := int64(8 * 8 * 3 * 3)
	inputBytes := inputDepBytes(d)
	if weightReads != wantWeights+inputBytes {
		t.Errorf("DRAM reads = %d, want %d (weights once) + %d (inputs)",
			weightReads, wantWeights, inputBytes)
	}
}

func TestNoWritebackForDeadTensors(t *testing.T) {
	// In a pure cascade with ample buffer, intermediate outputs are
	// consumed next round and then released: DRAM writes must be only the
	// final layer's output.
	d, s := pipeline(t, "tinyconv", 1, 4)
	io, _ := replay(t, d, s, 4, 16<<20)
	var finalBytes int64
	for id, a := range d.Atoms {
		if a.Task.Kind == graph.OpInput {
			continue
		}
		if rows, _ := d.ConsumerRows(id); len(rows) == 0 {
			finalBytes += a.OutputBytes()
		}
	}
	if got := sum(io.DRAMWriteBytes); got != finalBytes {
		t.Errorf("DRAM writes = %d, want %d (final outputs only)", got, finalBytes)
	}
}

func TestReuseRatioOrdering(t *testing.T) {
	// Bigger buffers must never reduce the on-chip reuse ratio.
	d, s := pipeline(t, "tinyresnet", 2, 4)
	sizes := []int64{2 << 10, 16 << 10, 128 << 10, 1 << 20}
	prev := -1.0
	for _, sz := range sizes {
		io, _ := replay(t, d, s, 4, sz)
		ratio := float64(io.InputBytesOnChip) / float64(io.InputBytesTotal)
		if ratio < prev-0.02 { // small tolerance for eviction-order noise
			t.Errorf("reuse ratio dropped from %.3f to %.3f at %d bytes", prev, ratio, sz)
		}
		prev = ratio
	}
}

func TestOutOfOrderRoundRejected(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	m, err := New(d, s, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteRound(1, naivePlacement(s, 1)); err == nil {
		t.Error("out-of-order round accepted")
	}
}

func TestInvalidPlacementRejected(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	m, err := New(d, s, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteRound(0, PlacementMap{}); err == nil {
		t.Error("missing placement accepted")
	}
}

func TestNewValidation(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	if _, err := New(d, s, 0, 1<<20); err == nil {
		t.Error("0 engines accepted")
	}
	if _, err := New(d, s, 4, 0); err == nil {
		t.Error("0 capacity accepted")
	}
}

func TestLocateTracksResidence(t *testing.T) {
	d, s := pipeline(t, "tinyconv", 1, 4)
	m, err := New(d, s, 4, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	p := naivePlacement(s, 0)
	if _, err := m.ExecuteRound(0, p); err != nil {
		t.Fatal(err)
	}
	for id, e := range p {
		// Atoms with future consumers must be resident where placed.
		if rows, _ := d.ConsumerRows(id); len(rows) > 0 && m.Locate(id) != e {
			t.Errorf("atom %d resident at %d, want %d", id, m.Locate(id), e)
		}
	}
}

// inputDepBytes sums the bytes of every edge out of a virtual input atom.
func inputDepBytes(d *atom.DAG) int64 {
	var total int64
	for id := range d.Atoms {
		deps, bytes, off := d.Deps(id)
		for di, dep := range deps {
			if d.Atoms[dep+off].Task.Kind == graph.OpInput {
				total += bytes[di]
			}
		}
	}
	return total
}
