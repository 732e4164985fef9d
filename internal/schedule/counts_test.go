package schedule

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/schedule_counts.json from this tree")

const scheduleCountsPath = "../../testdata/schedule_counts.json"

// maxBuildAllocs bounds TestScheduleBuildAllocs.
const maxBuildAllocs = 150

// scheduleCounts is the work of one DP Build: the option lists options()
// computed, the option lists read back from the previous Round's
// lookahead tree, the apply calls of the lookahead and the committed
// Rounds, and the cost-oracle evaluations that priced the atoms.
type scheduleCounts struct {
	OptionLists int `json:"option_lists"`
	OptionReads int `json:"option_reads"`
	Applies     int `json:"applies"`
	Evaluations int `json:"evaluations"`
}

// TestScheduleCounts pins Algorithm 2's work on resnet50 and inceptionv3
// at batch 1 and 8 and on deepchain1k at batch 1, each scheduled by the
// DP on 64 engines. A count above its pin fails: the DP does more work for
// the same DAG. A count below its pin fails too, as a stale pin; re-pin
// with
//
//	go test ./internal/schedule -run TestScheduleCounts -update
//
// Batch replicas repeat sample 0's Tasks, so a batch-8 Build prices as
// many atoms as its batch-1 Build; the test fails if their evaluations
// differ.
func TestScheduleCounts(t *testing.T) {
	got := map[string]scheduleCounts{}
	for _, w := range []struct {
		model string
		batch int
	}{{"resnet50", 1}, {"resnet50", 8}, {"inceptionv3", 1}, {"inceptionv3", 8}, {"deepchain1k", 1}} {
		opt := opts(64, DP)
		orc := cost.NewInstrumented(cost.Direct{})
		opt.Oracle = orc
		_, st, err := build(dagFor(t, w.model, w.batch), opt)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s/b%d", w.model, w.batch)] = scheduleCounts{st.optLists, st.optReads, st.applies,
			int(orc.Stats().Evaluations)}
	}
	for key, c := range got {
		model, b8 := strings.CutSuffix(key, "/b8")
		if b1 := got[model+"/b1"]; b8 && c.Evaluations != b1.Evaluations {
			t.Errorf("%s: %d evaluations, batch 1 %d: replicas were priced again", key, c.Evaluations, b1.Evaluations)
		}
	}
	if *updateCounts {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scheduleCountsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(scheduleCountsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pin map[string]scheduleCounts
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
			got, want int
		}{{"option_lists", c.OptionLists, p.OptionLists}, {"option_reads", c.OptionReads, p.OptionReads},
			{"applies", c.Applies, p.Applies}, {"evaluations", c.Evaluations, p.Evaluations}} {
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

// TestScheduleBuildAllocs pins the allocations of a DP Build of resnet50
// at batch 8. The Build allocates its tables and grows its buffers to the
// tree's size; no pick, option list or frontier update allocates, and a
// per-pick allocation would add thousands.
func TestScheduleBuildAllocs(t *testing.T) {
	d := dagFor(t, "resnet50", 8)
	opt := opts(64, DP)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Build(d, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Build", allocs)
	if allocs > maxBuildAllocs {
		t.Errorf("%.0f allocations per Build, pinned at most %d", allocs, maxBuildAllocs)
	}
}
