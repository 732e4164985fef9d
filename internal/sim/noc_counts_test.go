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

var updateNoC = flag.Bool("update", false, "rewrite testdata/noc_counts.json from this tree")

const nocCountsPath = "../../testdata/noc_counts.json"

// nocCounts is the NoC work of one sim.Run: the per-destination transfers
// the buffer replay emits, the multicast groups they fold into (each
// timed as one tree) and the tree links those groups claim.
type nocCounts struct {
	Flows      int64 `json:"noc_flows_total"`
	Groups     int64 `json:"noc_multicast_groups_total"`
	LinkClaims int64 `json:"noc_link_claims_total"`
}

// TestNoCCounts pins the NoC work of resnet50 at batch 1 and 8 and of
// inceptionv3 at batch 8, each a fixed-seed search's spec scheduled by the
// DP on the default 8x8 system. Any count above its pin fails: the
// simulator does more NoC work for the same schedule. A count below its
// pin fails too, as a stale pin; re-pin with
//
//	go test ./internal/sim -run TestNoCCounts -update
func TestNoCCounts(t *testing.T) {
	cfg := sim.DefaultConfig()
	got := map[string]nocCounts{}
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
		got[fmt.Sprintf("%s/b%d", w.model, w.batch)] = nocCounts{
			Flows:      snap.Counter("noc_flows_total"),
			Groups:     snap.Counter("noc_multicast_groups_total"),
			LinkClaims: snap.Counter("noc_link_claims_total"),
		}
	}
	if *updateNoC {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(nocCountsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(nocCountsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pin map[string]nocCounts
	if err := json.Unmarshal(b, &pin); err != nil {
		t.Fatal(err)
	}
	for key, c := range got {
		p, ok := pin[key]
		if !ok {
			t.Errorf("%s: no pin (re-pin with -update)", key)
			continue
		}
		for _, f := range []struct {
			name      string
			got, want int64
		}{{"noc_flows_total", c.Flows, p.Flows}, {"noc_multicast_groups_total", c.Groups, p.Groups},
			{"noc_link_claims_total", c.LinkClaims, p.LinkClaims}} {
			switch {
			case f.got > f.want:
				t.Errorf("%s: %s rose from %d to %d", key, f.name, f.want, f.got)
			case f.got < f.want:
				t.Errorf("%s: %s fell from %d to %d: stale pin, re-pin with -update", key, f.name, f.want, f.got)
			}
		}
	}
	for key := range pin {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer measured (re-pin with -update)", key)
		}
	}
}
