package sim_test

// The pipelined simulator's contract is bit-identical Reports: prep(t)
// depends only on prep(t-1) and time(t) only on prep(t)+time(t-1), so
// overlapping them must not move a single value. These tests pin sim.Run
// against the package's serial reference loop (RunSerial) across the
// whole model zoo at GOMAXPROCS 1 and 4 (CI also runs them under -race),
// and pin the no-goroutine-leak property of mid-pipeline cancellation.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/experiments"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// parityWorkload builds one model's atom DAG and Greedy schedule at the
// short matrix profile (the parity property is mesh-size independent,
// and the small search keeps 14 models x 2 hardware configs x 2 proc
// counts affordable under the race detector).
func parityWorkload(t *testing.T, model string, cfg sim.Config) (*atom.DAG, *schedule.Schedule) {
	t.Helper()
	g, err := models.Build(model)
	if err != nil {
		t.Fatal(err)
	}
	res := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{
		MaxIters: 60, Seed: 1, MaxTilesPerLay: 64,
	})
	d, err := atom.Build(g, 1, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: cfg.Mesh.Engines(), Mode: schedule.Greedy,
		EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// TestSimPipelineParity runs every bundled model through sim.Run and
// through the serial reference, and requires the full Report structs to
// be identical at GOMAXPROCS 1 and 4. Two hardware configs: a 4x4 mesh
// derived from DefaultConfig, and the FPGA prototype, which is built
// without DefaultConfig. After each pipelined run, the shared
// atom-to-engine table must hold exactly the placements sim.Replay
// reports (replayedEngines); all but the toy models' schedules have more
// Rounds than the prep ring has slots, so their slots are recycled.
func TestSimPipelineParity(t *testing.T) {
	mesh4 := sim.DefaultConfig()
	mesh4.Mesh = noc.NewMesh(4, 4, mesh4.Mesh.LinkBytes)
	mesh4.Oracle = cost.Default()
	hws := []struct {
		name string
		cfg  sim.Config
	}{
		{"mesh4x4", mesh4},
		{"fpga", experiments.FPGAConfig()},
	}
	names := models.Names()
	sort.Strings(names)
	for _, model := range names {
		for _, hw := range hws {
			t.Run(model+"/"+hw.name, func(t *testing.T) {
				d, s := parityWorkload(t, model, hw.cfg)
				if s.NumRounds() <= sim.PipelineDepth && !strings.HasPrefix(model, "tiny") {
					t.Fatalf("%d Rounds fit in the %d-slot ring; no slot is recycled", s.NumRounds(), sim.PipelineDepth)
				}
				want, err := sim.RunSerial(d, s, hw.cfg)
				if err != nil {
					t.Fatal(err)
				}
				replayed := replayedEngines(t, d, s, hw.cfg)
				for _, procs := range []int{1, 4} {
					t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						got, tables, err := sim.RunTable(d, s, hw.cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("pipelined Report diverged from the serial reference:\n  got  %+v\n  want %+v", got, want)
						}
						for i, table := range tables {
							if !slices.Equal(table, replayed) {
								t.Fatalf("slot %d's table differs from the placements sim.Replay reports", i)
							}
						}
					})
				}
			})
		}
	}
}

// replayedEngines collects the per-Round placements sim.Replay reports
// into one atom-to-engine table (-1 for atoms no Round runs), checking
// that every scheduled atom is placed in exactly one Round, on an engine
// of the mesh, and that no two atoms of a Round share an engine.
func replayedEngines(t *testing.T, d *atom.DAG, s *schedule.Schedule, cfg sim.Config) []int {
	t.Helper()
	engines := make([]int, d.NumAtoms())
	for id := range engines {
		engines[id] = -1
	}
	n := cfg.Mesh.Engines()
	err := sim.Replay(d, s, cfg, func(p sim.Prepared) {
		owner := make(map[int]int, len(s.Rounds[p.Round].Atoms))
		for _, id := range s.Rounds[p.Round].Atoms {
			e := p.Placed.Engine(id)
			if e < 0 || e >= n {
				t.Fatalf("round %d: atom %d on engine %d of %d", p.Round, id, e, n)
			}
			if other, ok := owner[e]; ok {
				t.Fatalf("round %d: atoms %d and %d both on engine %d", p.Round, other, id, e)
			}
			owner[e] = id
			if engines[id] >= 0 {
				t.Fatalf("round %d: atom %d placed a second time", p.Round, id)
			}
			engines[id] = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range s.AtomRound {
		if (r >= 0) != (engines[id] >= 0) {
			t.Fatalf("atom %d: scheduled in Round %d but placed on engine %d", id, r, engines[id])
		}
	}
	return engines
}

// TestSimPipelineCancelNoLeak cancels a run from its own Trace hook (so
// the prep goroutine is guaranteed to be in flight, several Rounds ahead)
// and checks that sim.Run surfaces context.Canceled and that the prep
// goroutine is reaped — Run must never leak it.
func TestSimPipelineCancelNoLeak(t *testing.T) {
	hw := sim.DefaultConfig()
	hw.Oracle = cost.Default()
	d, s := parityWorkload(t, "resnet50", hw)
	if s.NumRounds() < 4 {
		t.Fatalf("want a multi-round schedule, got %d rounds", s.NumRounds())
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := hw
		cfg.Ctx = ctx
		rounds := 0
		cfg.Trace = func(sim.RoundTrace) {
			rounds++
			if rounds == 2 {
				cancel()
			}
		}
		_, err := sim.Run(d, s, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}

	// The timing goroutine returns before the prep goroutine notices the
	// closed stop channel, so allow a short settle window.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak after cancelled pipelined runs: %d -> %d", before, n)
	}
}
