package sim

import (
	"math/rand"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Mesh = noc.NewMesh(2, 2, 8)
	return c
}

func pipeline(t *testing.T, model string, batch int, cfg Config, mode schedule.Mode) (*atom.DAG, *schedule.Schedule) {
	t.Helper()
	g := models.MustBuild(model)
	res := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{MaxIters: 80})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: cfg.Mesh.Engines(), Mode: mode,
		EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestBatchIncreasesWorkNotLatencyLinearly(t *testing.T) {
	cfg := smallConfig()
	d1, s1 := pipeline(t, "tinyconv", 1, cfg, schedule.Greedy)
	d4, s4 := pipeline(t, "tinyconv", 4, cfg, schedule.Greedy)
	r1, err := Run(d1, s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(d4, s4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r4.MACs != 4*r1.MACs {
		t.Errorf("batch-4 MACs = %d, want %d", r4.MACs, 4*r1.MACs)
	}
	// Batch parallelism fills idle engines: time grows sublinearly.
	if r4.Cycles >= 4*r1.Cycles {
		t.Errorf("batch-4 cycles %d >= 4x batch-1 cycles %d (no batch parallelism)",
			r4.Cycles, 4*r1.Cycles)
	}
	if r4.PEUtilization <= r1.PEUtilization {
		t.Errorf("batch-4 util %.3f <= batch-1 util %.3f", r4.PEUtilization, r1.PEUtilization)
	}
}

func TestSmallerBufferMoreDRAM(t *testing.T) {
	cfg := smallConfig()
	d, s := pipeline(t, "tinyresnet", 2, cfg, schedule.Greedy)
	big := cfg
	big.Engine.BufferBytes = 4 << 20
	small := cfg
	small.Engine.BufferBytes = 4 << 10
	rb, err := Run(d, s, big)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(d, s, small)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DRAMReadBytes <= rb.DRAMReadBytes {
		t.Errorf("small-buffer DRAM reads %d <= big-buffer %d", rs.DRAMReadBytes, rb.DRAMReadBytes)
	}
	if rs.OnChipReuseRatio >= rb.OnChipReuseRatio {
		t.Errorf("small-buffer reuse %.3f >= big-buffer %.3f",
			rs.OnChipReuseRatio, rb.OnChipReuseRatio)
	}
	if rs.Energy.DRAM <= rb.Energy.DRAM {
		t.Error("small buffer should cost more DRAM energy")
	}
}

// TestHBMClockedByEngine: the HBM prices transfers in engine cycles, so
// at a fixed PeakGBps doubling Engine.FreqMHz doubles the cycles a
// transfer takes (to within the floor of the byte division).
func TestHBMClockedByEngine(t *testing.T) {
	cfg := smallConfig()
	d, s := pipeline(t, "tinyconv", 1, cfg, schedule.Greedy)
	xfer := func(freqMHz float64) int64 {
		t.Helper()
		c := cfg
		c.Engine.FreqMHz = freqMHz
		var first RoundTrace
		c.Trace = func(rt RoundTrace) {
			if rt.Round == 0 {
				first = rt
			}
		}
		if _, err := Run(d, s, c); err != nil {
			t.Fatal(err)
		}
		// Round 0 issues at most one read per engine, on idle channels.
		return first.DRAMReady - first.DRAMIssue - dram.AccessLatency - 1
	}
	slow, fast := xfer(500), xfer(1000)
	if slow <= 0 {
		t.Fatalf("Round 0 transfer takes %d cycles at 500 MHz, want > 0", slow)
	}
	if fast < 2*slow || fast > 2*slow+1 {
		t.Errorf("transfer takes %d cycles at 1000 MHz, want 2x the %d at 500 MHz", fast, slow)
	}
}

func TestDoubleBufferHelps(t *testing.T) {
	cfg := smallConfig()
	d, s := pipeline(t, "tinyconv", 2, cfg, schedule.Greedy)
	on := cfg
	on.DoubleBuffer = true
	off := cfg
	off.DoubleBuffer = false
	ron, err := Run(d, s, on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Run(d, s, off)
	if err != nil {
		t.Fatal(err)
	}
	if ron.Cycles > roff.Cycles {
		t.Errorf("double buffering made it slower: %d > %d", ron.Cycles, roff.Cycles)
	}
}

// runFlows folds the Round's flows into groups, times them on the dense
// arena path and the flows on the map-based reference path, asserts the
// two agree exactly, and returns the (shared) result.
func runFlows(t *testing.T, mesh *noc.Mesh, flows []Flow, start int64) (map[int]int64, int64) {
	t.Helper()
	refReady, refHops, refClaims := simulateFlowsReference(mesh, flows, start)
	a := newArena(mesh)
	a.beginRound()
	hops, claims := a.timeGroups(groupFlows(flows, mesh.Engines()), start)
	ready := make(map[int]int64)
	for e := 0; e < mesh.Engines(); e++ {
		if r := a.ready[e]; r != 0 {
			ready[e] = r
		}
	}
	if hops != refHops || claims != refClaims {
		t.Fatalf("byteHops/claims: dense %d/%d, reference %d/%d", hops, claims, refHops, refClaims)
	}
	if len(ready) != len(refReady) {
		t.Fatalf("arrivals: dense %v, reference %v", ready, refReady)
	}
	for e, r := range refReady {
		if ready[e] != r {
			t.Fatalf("engine %d arrival: dense %d, reference %d", e, ready[e], r)
		}
	}
	return ready, hops
}

func TestSimulateFlowsContention(t *testing.T) {
	mesh := noc.NewMesh(4, 1, 8)
	// Two flows over the shared 0->1 link.
	flows := []Flow{
		{Src: 0, Dst: 2, Bytes: 800},
		{Src: 0, Dst: 3, Bytes: 800},
	}
	ready, byteHops := runFlows(t, mesh, flows, 100)
	// First flow: link0 busy [100,200), arrives 2 hops later.
	if got := ready[2]; got != 100+100+2*1 {
		t.Errorf("flow to 2 arrives at %d, want 202", got)
	}
	// Second flow waits for link 0->1: starts at 200.
	if got := ready[3]; got <= ready[2] {
		t.Errorf("contended flow arrives at %d, want after %d", got, ready[2])
	}
	if want := int64(800*2 + 800*3); byteHops != want {
		t.Errorf("byteHops = %d, want %d", byteHops, want)
	}
}

func TestSimulateFlowsMulticast(t *testing.T) {
	mesh := noc.NewMesh(4, 1, 8)
	// Tagged broadcast from 0 to 1,2,3: bytes serialize once per link of
	// the shared route, not once per destination.
	flows := []Flow{
		{Src: 0, Dst: 1, Bytes: 800, Tag: 7},
		{Src: 0, Dst: 2, Bytes: 800, Tag: 7},
		{Src: 0, Dst: 3, Bytes: 800, Tag: 7},
	}
	ready, byteHops := runFlows(t, mesh, flows, 0)
	if want := int64(800 * 3); byteHops != want { // 3 tree links
		t.Errorf("multicast byteHops = %d, want %d", byteHops, want)
	}
	// Compare against unicast: source link serializes 3x.
	for i := range flows {
		flows[i].Tag = 0
	}
	_, uniHops := runFlows(t, mesh, flows, 0)
	if uniHops <= byteHops {
		t.Errorf("unicast byteHops %d should exceed multicast %d", uniHops, byteHops)
	}
	if ready[3] <= ready[1] {
		t.Errorf("farther destination should arrive later: %v", ready)
	}
}

// TestWalkFlowsTopologies compares the dense walk, which claims only the
// unclaimed suffix of each route, with the reference walk on random
// Rounds of large multicast groups (few sources, few tags, many
// destinations) over every topology, including a non-square mesh.
func TestWalkFlowsTopologies(t *testing.T) {
	for _, mesh := range []*noc.Mesh{
		noc.NewMesh(8, 8, 16), noc.NewMesh(9, 8, 16),
		noc.NewTorus(5, 6, 16), noc.NewTorus(8, 8, 16),
		noc.NewHTree(16, 16), noc.NewHTree(64, 16),
	} {
		engines := mesh.Engines()
		rng := rand.New(rand.NewSource(int64(engines)))
		for trial := 0; trial < 60; trial++ {
			srcs := make([]int, 1+rng.Intn(3))
			for i := range srcs {
				srcs[i] = rng.Intn(engines)
			}
			flows := randomFlows(rng, rng.Intn(4*engines), srcs, engines)
			runFlows(t, mesh, flows, int64(rng.Intn(1000)))
		}
	}
}

// TestWalkFlowsAcrossRounds runs one arena over back-to-back random
// multi-group Rounds, clearing its Round state with beginRound between
// them as the timing stage does, and checks every Round against the
// map-based reference. The Rounds start at cycles that do not increase,
// so a link free time or an engine arrival left over from an earlier
// Round would delay or add an arrival; in the simulator a later Round
// always starts after every earlier arrival, which would hide the leak.
func TestWalkFlowsAcrossRounds(t *testing.T) {
	mesh := noc.NewMesh(8, 8, 16)
	engines := mesh.Engines()
	rng := rand.New(rand.NewSource(7))
	a := newArena(mesh)
	for round := 0; round < 60; round++ {
		srcs := make([]int, 1+rng.Intn(4))
		for i := range srcs {
			srcs[i] = rng.Intn(engines)
		}
		flows := randomFlows(rng, 1+rng.Intn(2*engines), srcs, engines)
		start := int64(5000 - 80*round)
		if round%3 == 2 {
			start = int64(5000 - 80*(round-1)) // a repeated start
		}
		refReady, refHops, refClaims := simulateFlowsReference(mesh, flows, start)
		a.beginRound()
		hops, claims := a.timeGroups(groupFlows(flows, engines), start)
		if hops != refHops || claims != refClaims {
			t.Fatalf("round %d: byteHops/claims %d/%d, reference %d/%d", round, hops, claims, refHops, refClaims)
		}
		for e := 0; e < engines; e++ {
			if a.ready[e] != refReady[e] {
				t.Fatalf("round %d: engine %d arrival %d, reference %d", round, e, a.ready[e], refReady[e])
			}
		}
	}
}

func TestSimulateFlowsEmpty(t *testing.T) {
	mesh := noc.NewMesh(2, 2, 8)
	got, bh := runFlows(t, mesh, nil, 5)
	if len(got) != 0 || bh != 0 {
		t.Errorf("empty flows produced arrivals: %v hops %d", got, bh)
	}
}

func TestValidation(t *testing.T) {
	cfg := smallConfig()
	d, s := pipeline(t, "tinyconv", 1, cfg, schedule.Greedy)
	bad := cfg
	bad.Mesh = nil
	if _, err := Run(d, s, bad); err == nil {
		t.Error("nil mesh accepted")
	}
	bad2 := cfg
	bad2.Engine.PEx = 0
	if _, err := Run(d, s, bad2); err == nil {
		t.Error("bad engine accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallConfig()
	d, s := pipeline(t, "pnascell", 2, cfg, schedule.Greedy)
	a, err := Run(d, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.DRAMReadBytes != b.DRAMReadBytes || a.NoCByteHops != b.NoCByteHops {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestEnergyBreakdownComplete(t *testing.T) {
	cfg := smallConfig()
	d, s := pipeline(t, "tinyresnet", 1, cfg, schedule.Greedy)
	rep, err := Run(d, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Energy
	for name, v := range map[string]float64{
		"MAC": e.MAC, "SRAM": e.SRAM, "DRAM": e.DRAM, "Static": e.Static,
	} {
		if v <= 0 {
			t.Errorf("energy component %s = %v, want > 0", name, v)
		}
	}
}

func TestEngineTaskUsesDataflow(t *testing.T) {
	// The same schedule simulated under YX vs KC pricing differs: use a
	// model whose first layer has tiny Ci (KC-hostile).
	kc := smallConfig()
	kc.Dataflow = engine.KCPartition
	yx := smallConfig()
	yx.Dataflow = engine.YXPartition
	dk, sk := pipeline(t, "tinyconv", 1, kc, schedule.Greedy)
	dy, sy := pipeline(t, "tinyconv", 1, yx, schedule.Greedy)
	rk, err := Run(dk, sk, kc)
	if err != nil {
		t.Fatal(err)
	}
	ry, err := Run(dy, sy, yx)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Cycles == ry.Cycles {
		t.Error("KC and YX dataflows produced identical cycles; dataflow ignored?")
	}
}
