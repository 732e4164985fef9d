package schedule

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/schedule_counts.json from this tree")

const scheduleCountsPath = "../../testdata/schedule_counts.json"

// maxBuildAllocs bounds TestScheduleBuildAllocs.
const maxBuildAllocs = 150

// scheduleCounts is the work of one DP Build: the option lists options()
// computed, the option lists read back from the previous Round's
// lookahead tree, and the apply calls of the lookahead and the committed
// Rounds.
type scheduleCounts struct {
	OptionLists int `json:"option_lists"`
	OptionReads int `json:"option_reads"`
	Applies     int `json:"applies"`
}

// TestScheduleCounts pins Algorithm 2's work on resnet50 and inceptionv3
// at batch 1 and 8 and on deepchain1k at batch 1, each scheduled by the
// DP on 64 engines. A count above its pin fails: the DP does more work for
// the same DAG. A count below its pin fails too, as a stale pin; re-pin
// with
//
//	go test ./internal/schedule -run TestScheduleCounts -update
func TestScheduleCounts(t *testing.T) {
	got := map[string]scheduleCounts{}
	for _, w := range []struct {
		model string
		batch int
	}{{"resnet50", 1}, {"resnet50", 8}, {"inceptionv3", 1}, {"inceptionv3", 8}, {"deepchain1k", 1}} {
		_, st, err := build(dagFor(t, w.model, w.batch), opts(64, DP))
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s/b%d", w.model, w.batch)] = scheduleCounts{st.optLists, st.optReads, st.applies}
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
			{"applies", c.Applies, p.Applies}} {
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
