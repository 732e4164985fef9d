package experiments

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

func TestTopologiesAblation(t *testing.T) {
	cfg := fast("resnet50")
	cfg.Batch = 2
	rows, err := Topologies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byTopo := map[string]TopologyRow{}
	for _, r := range rows {
		byTopo[r.Topology] = r
	}
	// Torus shortens average routes: never more byte-hops than the mesh.
	if byTopo["torus"].ByteHops > byTopo["mesh"].ByteHops {
		t.Errorf("torus byte-hops %d > mesh %d", byTopo["torus"].ByteHops, byTopo["mesh"].ByteHops)
	}
	for _, r := range rows {
		if r.TimeMS <= 0 {
			t.Errorf("%s: no time", r.Topology)
		}
	}
}

func TestMappingAblation(t *testing.T) {
	cfg := fast("resnet50")
	cfg.Batch = 2
	rows, err := MappingAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var naive, opt MappingRow
	for _, r := range rows {
		if r.Optimized {
			opt = r
		} else {
			naive = r
		}
	}
	// Optimized mapping must not slow execution, and its weight-affinity
	// refinement must cut DRAM traffic (it trades a few NoC hops for
	// fewer HBM refetches, so raw byte-hops may tick up slightly).
	if opt.TimeMS > naive.TimeMS*1.02 {
		t.Errorf("optimized mapping slower: %.3f vs %.3f ms", opt.TimeMS, naive.TimeMS)
	}
	if opt.DRAMBytes >= naive.DRAMBytes {
		t.Errorf("optimized DRAM %d >= naive %d", opt.DRAMBytes, naive.DRAMBytes)
	}
	if opt.ByteHops > naive.ByteHops*3/2 {
		t.Errorf("optimized byte-hops %d blew past naive %d", opt.ByteHops, naive.ByteHops)
	}
}

func TestLookaheadAblation(t *testing.T) {
	cfg := fast("pnascell")
	cfg.Batch = 4
	rows, err := LookaheadAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Deeper lookahead never worsens the makespan bound badly.
	if float64(rows[3].MakespanLB) > 1.05*float64(rows[0].MakespanLB) {
		t.Errorf("depth-5 makespan %d much worse than depth-1 %d",
			rows[3].MakespanLB, rows[0].MakespanLB)
	}
	// Depth 3 is the scheduler default: re-scheduling the one searched
	// DAG must reproduce a default DP solve with the same knobs.
	sol, err := atomicflow.Orchestrate(mustModel("pnascell"), atomicflow.Options{
		Batch: 4, Mode: schedule.DP, SAIters: cfg.SAIters, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[2].Lookahead != 3 || rows[2].TimeMS != sol.Report.TimeMS {
		t.Errorf("depth-%d row %.6f ms, default DP Orchestrate %.6f ms",
			rows[2].Lookahead, rows[2].TimeMS, sol.Report.TimeMS)
	}
}

// TestSearchOverhead checks that each row reports the orchestration it
// timed: the atom and Round counts of a direct Orchestrate with the same
// knobs, and a positive search time.
func TestSearchOverhead(t *testing.T) {
	cfg := fast("tinyresnet")
	cfg.SAIters = 100
	rows, err := SearchOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	sol, err := atomicflow.Orchestrate(mustModel("tinyresnet"), atomicflow.Options{
		Mode: cfg.Mode, SAIters: cfg.SAIters, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Atoms != sol.Atoms || r.Rounds != sol.Rounds {
			t.Errorf("%s: %d atoms, %d rounds; Orchestrate %d atoms, %d rounds",
				r.Workload, r.Atoms, r.Rounds, sol.Atoms, sol.Rounds)
		}
		if r.Seconds <= 0 {
			t.Errorf("%s: search time %v s, want > 0", r.Workload, r.Seconds)
		}
	}
}
