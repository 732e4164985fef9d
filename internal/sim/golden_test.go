package sim

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// TestGoldenReportDeterminism is the regression gate for the dense
// route-table/arena hot paths: for one cascade, one residual and one
// NAS-irregular zoo model, sim.Run must produce bit-identical Reports
// across repeated runs, and every Round's NoC flows must time the same on
// the dense arena path and the map-based reference path. The reference
// leg drives prep and time Round by Round, as runSerial does, checks each
// Round's flows with runFlows at the Round's start cycle, and requires
// the resulting Report to equal Run's. The perf PR is a representation
// change, not a model change — any drift here is a bug.
func TestGoldenReportDeterminism(t *testing.T) {
	models := []struct {
		name   string
		batch  int
		bufDiv int64 // shrink BufferBytes by this factor (0 = default)
	}{
		{"tinyconv", 2, 0},    // cascade
		{"tinyresnet", 2, 0},  // residual bypasses
		{"pnascell", 2, 0},    // NAS-generated irregular cell
		{"tinyresnet", 2, 64}, // starved buffers: exercises eviction ranking
	}
	for _, mc := range models {
		t.Run(mc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mesh = noc.NewMesh(4, 4, 16)
			if mc.bufDiv > 0 {
				cfg.BufferBytes = int64(cfg.Engine.BufferBytes) / mc.bufDiv
			}
			d, s := pipeline(t, mc.name, mc.batch, cfg, schedule.Greedy)

			run := func() Report {
				t.Helper()
				rep, err := Run(d, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			dense1 := run()
			dense2 := run()
			if dense1 != dense2 {
				t.Errorf("dense path not deterministic:\n  %+v\nvs\n  %+v", dense1, dense2)
			}

			r, release, err := newRunner(d, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			var slot prepSlot
			for rt := range s.Rounds {
				r.prep(rt, &slot)
				if slot.err != nil {
					t.Fatal(slot.err)
				}
				runFlows(t, cfg.Mesh, slot.io.Flows, r.now)
				if err := r.time(&slot); err != nil {
					t.Fatal(err)
				}
				r.mapper.Recycle(&slot.placed)
			}
			if ref := r.report(); dense1 != ref {
				t.Errorf("Round-by-Round reference run disagrees with Run:\n  Run %+v\n  ref %+v", dense1, ref)
			}
		})
	}
}
