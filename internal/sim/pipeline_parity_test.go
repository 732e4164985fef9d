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
	"sort"
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
// without DefaultConfig.
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
				want, err := sim.RunSerial(d, s, hw.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 4} {
					t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						got, err := sim.Run(d, s, hw.cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("pipelined Report diverged from the serial reference:\n  got  %+v\n  want %+v", got, want)
						}
					})
				}
			})
		}
	}
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
