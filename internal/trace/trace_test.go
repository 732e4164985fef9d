package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

func collect(t *testing.T, model string, batch int) (*Collector, *graph.Graph, sim.Report) {
	t.Helper()
	g := models.MustBuild(model)
	cfg := sim.DefaultConfig()
	cfg.Mesh = noc.NewMesh(2, 2, 32)
	res := anneal.SA(g, cfg.Engine, cfg.Dataflow, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: 4, Mode: schedule.Greedy, EngineCfg: cfg.Engine, Dataflow: cfg.Dataflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	var c Collector
	cfg.Trace = c.Hook
	rep, err := sim.Run(d, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &c, g, rep
}

func TestCollectorCoversRun(t *testing.T) {
	c, _, rep := collect(t, "tinyresnet", 2)
	if len(c.Rounds) != rep.Rounds {
		t.Fatalf("traced %d rounds, report says %d", len(c.Rounds), rep.Rounds)
	}
	if end := c.Rounds[len(c.Rounds)-1].End; end != rep.Cycles {
		t.Errorf("trace end %d != report cycles %d", end, rep.Cycles)
	}
	// Rounds are contiguous and ordered.
	prev := int64(0)
	for i, rt := range c.Rounds {
		if rt.Round != i {
			t.Fatalf("round index %d at position %d", rt.Round, i)
		}
		if rt.Start != prev {
			t.Fatalf("round %d starts at %d, want %d", i, rt.Start, prev)
		}
		if rt.End < rt.Start || rt.ComputeEnd > rt.End {
			t.Fatalf("round %d times inconsistent: %+v", i, rt)
		}
		prev = rt.End
	}
}

// TestChromeExport checks the exporter's Chrome trace-event framing: a
// valid JSON document whose compute events carry layer names from the
// graph.
func TestChromeExport(t *testing.T) {
	c, g, _ := collect(t, "tinybranch", 1)
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf, g); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	named := false
	for _, ev := range doc.TraceEvents {
		if name, ok := ev["name"].(string); ok && strings.Contains(name, "conv") {
			named = true
		}
	}
	if !named {
		t.Error("no layer-named events")
	}
}

// TestHookConcurrent hammers Hook from many goroutines; under -race this
// fails if Hook's append is unguarded (parallel sweeps share collectors).
func TestHookConcurrent(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	const writers, each = 8, 100
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Hook(sim.RoundTrace{Round: i*each + j})
			}
		}(i)
	}
	wg.Wait()
	if len(c.Rounds) != writers*each {
		t.Fatalf("recorded %d rounds, want %d", len(c.Rounds), writers*each)
	}
	sort.Slice(c.Rounds, func(i, j int) bool { return c.Rounds[i].Round < c.Rounds[j].Round })
	for i, rt := range c.Rounds {
		if rt.Round != i {
			t.Fatalf("after sorting, position %d holds round %d", i, rt.Round)
		}
	}
}

func TestPerfettoExport(t *testing.T) {
	c, g, _ := collect(t, "tinyresnet", 2)
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf, g); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// All three processes must be named, and the DRAM read lane populated
	// (every Round of this model fetches weights).
	var lanes, dramReads, nocCounters int
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "process_name":
			lanes++
		case "dram-read":
			dramReads++
		case "flow_bytes":
			nocCounters++
		}
	}
	if lanes != 3 {
		t.Errorf("process_name records = %d, want 3", lanes)
	}
	if dramReads == 0 {
		t.Error("no dram-read spans")
	}
	if nocCounters == 0 {
		t.Error("no flow_bytes counter events")
	}
	// DRAM spans never extend past their Round's barrier ordering:
	// DRAMIssue <= DRAMReady and ComputeEnd <= DRAMEnd <= End.
	for _, rt := range c.Rounds {
		if rt.DRAMIssue > rt.DRAMReady {
			t.Fatalf("round %d: DRAM issue %d after ready %d", rt.Round, rt.DRAMIssue, rt.DRAMReady)
		}
		if rt.ComputeEnd > rt.DRAMEnd || rt.DRAMEnd > rt.End {
			t.Fatalf("round %d: span ordering violated: %+v", rt.Round, rt)
		}
	}
}
