package anneal

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/search_counts.json from this tree")

const searchCountsPath = "../../testdata/search_counts.json"

// maxSetupAllocs bounds TestSearchSetupAllocs.
const maxSetupAllocs = 330

// searchCounts is the work of one default-knob search: the cost-oracle
// evaluations that priced the candidates, the distinct candidate lists
// of the energy layers, the SA iterations and the pick calls that scored
// them (including the polish grid and the final argmin).
type searchCounts struct {
	Evaluations int64 `json:"evaluations"`
	Lists       int   `json:"lists"`
	Iterations  int64 `json:"iterations"`
	Picks       int64 `json:"picks"`
}

// TestSearchCounts pins Algorithm 1's work on every zoo model under KC-P
// and YX-P at default knobs and seed 1. Any change fails: a count above
// its pin means the search does more work for the same graph, one below
// it a stale pin. Re-pin with
//
//	go test ./internal/anneal -run TestSearchCounts -update
func TestSearchCounts(t *testing.T) {
	got := map[string]searchCounts{}
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		for _, df := range []engine.Dataflow{engine.KCPartition, engine.YXPartition} {
			orc := cost.NewInstrumented(cost.Direct{})
			reg := obs.New()
			SA(g, engine.Default(), df, Options{Oracle: orc, Metrics: reg})
			snap := reg.Snapshot()
			got[fmt.Sprintf("%s/%v", model, df)] = searchCounts{
				Evaluations: orc.Stats().Evaluations,
				Lists:       len(newSearch(g, engine.Default(), df, Options{}).groups),
				Iterations:  snap.Counter("anneal_iterations_total"),
				Picks:       snap.Counter("anneal_picks_total"),
			}
		}
	}
	if *updateCounts {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchCountsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(searchCountsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pin map[string]searchCounts
	if err := json.Unmarshal(b, &pin); err != nil {
		t.Fatal(err)
	}
	for key, c := range got {
		p, ok := pin[key]
		if !ok {
			t.Errorf("%s: no pin (re-pin with -update)", key)
			continue
		}
		if c != p {
			t.Errorf("%s: counts %+v, pinned %+v (re-pin with -update if the change is intended)", key, c, p)
		}
	}
	for key := range pin {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer measured (re-pin with -update)", key)
		}
	}
}

// TestSearchSetupAllocs pins the allocations of a cold default-knob
// search of resnet50 under KC-P: candidate generation, the candidate
// lists and their grouping, and the annealing, which allocates only the
// trace. A per-move allocation would add hundreds.
func TestSearchSetupAllocs(t *testing.T) {
	g := models.MustBuild("resnet50")
	allocs := testing.AllocsPerRun(1, func() {
		SA(g, engine.Default(), engine.KCPartition, Options{Oracle: cost.NewInstrumented(cost.Direct{})})
	})
	t.Logf("%.0f allocations per cold search", allocs)
	if allocs > maxSetupAllocs {
		t.Errorf("%.0f allocations per cold search, pinned at most %d", allocs, maxSetupAllocs)
	}
}
