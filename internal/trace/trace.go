// Package trace collects per-Round execution traces from the simulator
// and exports them as one Chrome trace-event JSON document for the
// Perfetto UI: engine compute lanes plus NoC and DRAM lanes. Traces make
// the scheduler's behaviour visible — which layers share Rounds, where
// the barriers stretch, which engines idle, and whether NoC or DRAM held
// each barrier open.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// WriteOracleStats prints one cost-oracle accounting line — the
// evaluation count — tagged with a label. With a shared long-lived
// oracle, pass the Stats.Sub delta of the span to report (e.g. cmd/adexp
// snapshots around each experiment).
func WriteOracleStats(w io.Writer, label string, s cost.Stats) {
	fmt.Fprintf(w, "  [oracle %s: %d evaluations]\n", label, s.Evaluations)
}

// Collector accumulates RoundTraces; its Hook method plugs into
// sim.Config.Trace. Hook is safe for concurrent use — parallel sweeps
// may share one collector — but interleaved runs arrive out of order:
// call Sort before exporting if more than one goroutine recorded.
type Collector struct {
	mu     sync.Mutex
	Rounds []sim.RoundTrace
}

// Hook records one Round. Pass it as sim.Config.Trace.
func (c *Collector) Hook(rt sim.RoundTrace) {
	c.mu.Lock()
	c.Rounds = append(c.Rounds, rt)
	c.mu.Unlock()
}

// Sort orders the recorded Rounds by Round index, restoring export order
// after concurrent collection.
func (c *Collector) Sort() {
	c.mu.Lock()
	sort.SliceStable(c.Rounds, func(i, j int) bool {
		return c.Rounds[i].Round < c.Rounds[j].Round
	})
	c.mu.Unlock()
}

// TotalCycles returns the traced execution span.
func (c *Collector) TotalCycles() int64 {
	if len(c.Rounds) == 0 {
		return 0
	}
	return c.Rounds[len(c.Rounds)-1].End
}

// chromeEvent is one Chrome trace-event entry ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// metaEvent builds a Chrome "M" metadata record naming a process or
// thread lane.
func metaEvent(kind string, pid, tid int, name string) chromeEvent {
	return chromeEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// WritePerfetto renders the full-span trace for the Perfetto UI (or
// chrome://tracing). Engines are the threads of process 0, with one
// layer-named span per atom; timestamps are cycles. A NoC process (pid 1)
// and a DRAM process (pid 2) carry the Round barrier's memory side:
//
//   - noc/blocked — spans [DRAMEnd, End] where link contention held the
//     Round barrier open, tagged with the Round's flow count and bytes.
//   - noc/bytes — a counter track of each Round's on-chip flow volume.
//   - dram/reads — spans [DRAMIssue, DRAMReady] covering each Round's
//     aggregate read (issued a Round early under double buffering).
//   - dram/blocked — spans [ComputeEnd, DRAMEnd] where off-chip latency
//     held the barrier open.
//
// All lanes are named via metadata records so the UI labels them.
func (c *Collector) WritePerfetto(w io.Writer, g *graph.Graph) error {
	events := []chromeEvent{
		metaEvent("process_name", 0, 0, "engines"),
		metaEvent("process_name", 1, 0, "noc"),
		metaEvent("process_name", 2, 0, "dram"),
		metaEvent("thread_name", 1, 0, "blocked"),
		metaEvent("thread_name", 1, 1, "bytes"),
		metaEvent("thread_name", 2, 0, "blocked"),
		metaEvent("thread_name", 2, 1, "reads"),
	}
	maxEngine := 0
	for _, rt := range c.Rounds {
		for _, at := range rt.Atoms {
			if at.Engine > maxEngine {
				maxEngine = at.Engine
			}
		}
	}
	for e := 0; e <= maxEngine; e++ {
		events = append(events, metaEvent("thread_name", 0, e, fmt.Sprintf("engine %d", e)))
	}
	for _, rt := range c.Rounds {
		for _, at := range rt.Atoms {
			name := fmt.Sprintf("L%d", at.Layer)
			if g != nil {
				name = g.Layer(at.Layer).Name
			}
			events = append(events, chromeEvent{
				Name: name, Ph: "X",
				Ts: rt.Start, Dur: at.Cycles,
				Pid: 0, Tid: at.Engine,
				Args: map[string]any{
					"atom": at.Atom, "sample": at.Sample, "round": rt.Round,
				},
			})
		}
		if rt.End > rt.DRAMEnd {
			events = append(events, chromeEvent{
				Name: "noc-block", Ph: "X",
				Ts: rt.DRAMEnd, Dur: rt.End - rt.DRAMEnd,
				Pid: 1, Tid: 0,
				Args: map[string]any{
					"round": rt.Round, "flows": rt.Flows, "bytes": rt.FlowBytes,
				},
			})
		}
		events = append(events, chromeEvent{
			Name: "flow_bytes", Ph: "C",
			Ts: rt.Start, Pid: 1, Tid: 1,
			Args: map[string]any{"bytes": rt.FlowBytes},
		})
		if rt.DRAMRead > 0 && rt.DRAMReady > rt.DRAMIssue {
			events = append(events, chromeEvent{
				Name: "dram-read", Ph: "X",
				Ts: rt.DRAMIssue, Dur: rt.DRAMReady - rt.DRAMIssue,
				Pid: 2, Tid: 1,
				Args: map[string]any{"round": rt.Round, "bytes": rt.DRAMRead},
			})
		}
		if rt.DRAMEnd > rt.ComputeEnd {
			events = append(events, chromeEvent{
				Name: "dram-block", Ph: "X",
				Ts: rt.ComputeEnd, Dur: rt.DRAMEnd - rt.ComputeEnd,
				Pid: 2, Tid: 0,
				Args: map[string]any{"round": rt.Round},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
