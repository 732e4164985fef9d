package sim

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// TestGoldenReportDeterminism is the regression gate for the dense
// route-table/arena hot paths: for one cascade, one residual and one
// NAS-irregular zoo model, sim.Run must produce bit-identical Reports
// across repeated runs, and every Round's multicast groups must time the
// same on the dense arena path and, unfolded into their member flows, on
// the map-based reference path. The reference leg is runSerial, which
// checks each Round against the reference at the Round's start cycle, and
// its Report must equal Run's. The dense paths are a representation
// change, not a model change — any drift here is a bug.
func TestGoldenReportDeterminism(t *testing.T) {
	models := []struct {
		name   string
		batch  int
		bufDiv int // shrink the simulated Engine.BufferBytes by this factor (0 = default)
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
			d, s := pipeline(t, mc.name, mc.batch, cfg, schedule.Greedy)
			if mc.bufDiv > 0 {
				cfg.Engine.BufferBytes /= mc.bufDiv
			}

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

			ref, err := runSerial(d, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dense1 != ref {
				t.Errorf("Round-by-Round reference run disagrees with Run:\n  Run %+v\n  ref %+v", dense1, ref)
			}
		})
	}
}
