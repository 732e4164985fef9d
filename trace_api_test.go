package atomicflow

import (
	"errors"
	"strings"
	"testing"
)

// TestTraceWriterOption checks that Options.TraceWriter receives a
// trace document.
func TestTraceWriterOption(t *testing.T) {
	g, _ := LoadModel("tinyconv")
	hw := smallHW()
	var sb strings.Builder
	_, err := Orchestrate(g, Options{Hardware: &hw, TraceWriter: &sb})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Errorf("no trace emitted: %.80s", sb.String())
	}
}

// TestPerfettoWriterOption checks that the document Options.TraceWriter
// receives is the full-span Perfetto trace: engine, NoC and DRAM process
// lanes, not only the compute lanes.
func TestPerfettoWriterOption(t *testing.T) {
	g, _ := LoadModel("tinyconv")
	hw := smallHW()
	var sb strings.Builder
	_, err := Orchestrate(g, Options{Hardware: &hw, TraceWriter: &sb})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"process_name", `"name":"engines"`, `"name":"noc"`, `"name":"dram"`} {
		if !strings.Contains(out, want) {
			t.Errorf("perfetto trace missing %q: %.80s", want, out)
		}
	}
}

func TestMetricsOption(t *testing.T) {
	g, _ := LoadModel("tinyresnet")
	hw := smallHW()
	hw.Metrics = NewMetrics()
	sol, err := Orchestrate(g, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Metrics.Counter("sim_cycles_total"); got != sol.Report.Cycles {
		t.Errorf("snapshot sim_cycles_total = %d, want %d", got, sol.Report.Cycles)
	}
	if sol.Metrics.Counter("anneal_iterations_total") == 0 {
		t.Error("SA metrics not collected through HardwareConfig.Metrics")
	}
	if sol.Metrics.Counter("noc_link_bytes_total") == 0 {
		t.Error("NoC link traffic not collected")
	}
	// No registry installed -> zero-value snapshot, no metrics overhead.
	hw.Metrics = nil
	bare, err := Orchestrate(g, Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics.Counters != nil {
		t.Error("snapshot populated without a registry")
	}
	if bare.Report != sol.Report {
		t.Errorf("metrics perturbed the Report:\nbare:    %+v\nmetered: %+v",
			bare.Report, sol.Report)
	}
}

// failWriter fails every write.
type failWriter struct{}

var errWriteFailed = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestTraceWriterError checks that a trace that cannot be written fails
// the solve with the writer's error instead of reporting success.
func TestTraceWriterError(t *testing.T) {
	g, _ := LoadModel("tinyconv")
	hw := smallHW()
	sol, err := Orchestrate(g, Options{Hardware: &hw, TraceWriter: failWriter{}})
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("Orchestrate with a failing trace writer returned error %v, want %v", err, errWriteFailed)
	}
	if sol != nil {
		t.Error("a solve whose trace failed returned a Solution")
	}
}
