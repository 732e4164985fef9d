package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/sim_counts.json from this tree")

const simCountsPath = "../../testdata/sim_counts.json"

// simCounters is the work of one sim.Run that the pins cover: the
// per-destination transfers the buffer replay emits, the multicast groups
// they fold into (each timed as one tree) and the tree links those groups
// claim; the buffer replay's evictions; the DRAM requests and bytes; and
// the placement permutations the mapper scores.
var simCounters = []string{
	"noc_flows_total",
	"noc_multicast_groups_total",
	"noc_link_claims_total",
	"buffer_evictions_total",
	"dram_requests_total",
	"dram_read_bytes_total",
	"dram_write_bytes_total",
	"mapping_permutations_total",
}

// TestSimCounts pins the simulator's work counts (simCounters) for
// resnet50 at batch 1 and 8 and inceptionv3 at batch 8, each a
// fixed-seed search's spec scheduled by the DP on the default 8x8
// system. Any count above its pin fails: the simulator does more work for
// the same schedule. A count below its pin fails too, as a stale pin;
// re-pin with
//
//	go test ./internal/sim -run TestSimCounts -update
func TestSimCounts(t *testing.T) {
	cfg := sim.DefaultConfig()
	got := map[string]map[string]int64{}
	for _, w := range []struct {
		model string
		batch int
	}{{"resnet50", 1}, {"resnet50", 8}, {"inceptionv3", 8}} {
		g := models.MustBuild(w.model)
		spec := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{Seed: 1}).Spec
		d, err := atom.Build(g, w.batch, spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := schedule.Build(d, schedule.Options{
			Engines: cfg.Mesh.Engines(), Mode: schedule.DP,
			EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Metrics = obs.New()
		if _, err := sim.Run(d, s, c); err != nil {
			t.Fatal(err)
		}
		snap := c.Metrics.Snapshot()
		counts := map[string]int64{}
		for _, name := range simCounters {
			counts[name] = snap.Counter(name)
		}
		got[fmt.Sprintf("%s/b%d", w.model, w.batch)] = counts
	}
	if *updateCounts {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simCountsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(simCountsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pin map[string]map[string]int64
	if err := json.Unmarshal(b, &pin); err != nil {
		t.Fatal(err)
	}
	for key, counts := range got {
		p, ok := pin[key]
		if !ok {
			t.Errorf("%s: no pin (re-pin with -update)", key)
			continue
		}
		for _, name := range simCounters {
			want, ok := p[name]
			switch got := counts[name]; {
			case !ok:
				t.Errorf("%s: %s is not pinned (re-pin with -update)", key, name)
			case got > want:
				t.Errorf("%s: %s rose from %d to %d", key, name, want, got)
			case got < want:
				t.Errorf("%s: %s fell from %d to %d: stale pin, re-pin with -update", key, name, want, got)
			}
		}
	}
	for key := range pin {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer measured (re-pin with -update)", key)
		}
	}
}
