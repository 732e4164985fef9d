package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"testing"
	"time"

	atomicflow "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/serve"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestDeclarations keeps BENCHMARK.json and this package's metric and
// workload tables in step.
func TestDeclarations(t *testing.T) {
	b, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, decl []declared, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(decl), len(defs))
			return
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			got := decl[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s[%d]: declared %s %s %s, reported %s %s %s",
					kind, i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
			}
			if (got.Bound != nil) != (kind == "end_to_end") {
				t.Errorf("%s: %s bound %v", kind, got.Name, got.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, benchmark has %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload at one op, untraced and traced, and
// checks that the result line carries exactly the declared metrics with
// their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, tr := range []int{0, 1} {
			t.Run(w.name+"/trace"+strconv.Itoa(tr), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"-workload", w.name, "-ops", "1", "-trace", strconv.Itoa(tr), "-tmp", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				defs := endToEnd
				if tr == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want the %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.name, v, ok, d.unit)
					}
					if tr == 0 && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
			})
		}
	}
}

// corruptOnce returns op 1's Report with one field corrupted by hand.
type corruptOnce struct {
	rep     sim.Report
	macs    int64
	facts   hwFacts
	corrupt func(*sim.Report)
}

func (c corruptOnce) op(i int) (opOut, error) {
	r := c.rep
	if i == 1 {
		c.corrupt(&r)
	}
	return opOut{reports: []sim.Report{r}, digests: []string{"d"}}, checkReport(r, c.macs, c.facts)
}

func (c corruptOnce) replay(int, *tracer) ([]sim.Report, error) { return []sim.Report{c.rep}, nil }

// TestCorruptedReportCountsAsFailed corrupts one field of a real Report
// at a time and checks the op is counted as failed.
func TestCorruptedReportCountsAsFailed(t *testing.T) {
	g, err := atomicflow.LoadModel("tinyconv")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := atomicflow.Orchestrate(g, atomicflow.Options{SAIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	f := factsOf(atomicflow.DefaultHardware())
	corruptions := map[string]func(*sim.Report){
		"MACs":        func(r *sim.Report) { r.MACs += 7 },
		"cycle sum":   func(r *sim.Report) { r.NoCBlockedCycles++ },
		"total time":  func(r *sim.Report) { r.TimeMS *= 1.001 },
		"MAC energy":  func(r *sim.Report) { r.Energy.MAC *= 1.001 },
		"DRAM energy": func(r *sim.Report) { r.Energy.DRAM += 1 },
		"below bound": func(r *sim.Report) {
			r.Cycles, r.ComputeCycles, r.NoCBlockedCycles, r.DRAMBlockedCycles = 1, 1, 0, 0
			r.TimeMS = 1 / (f.freqMHz * 1e3)
			r.Energy.Static = f.energy.StaticpJCyc * float64(f.engines)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			ops := corruptOnce{sol.Report, modelMACs(g), f, corrupt}
			m, err := seqSession{ops}.measure(limit{ops: 3}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if m.attempted != 3 || len(m.failures) != 1 || len(m.lat) != 2 {
				t.Fatalf("attempted %d, failed %v, timed %d; want 3, 1, 2", m.attempted, m.failures, len(m.lat))
			}
		})
	}
}

// TestServeReplyChecks feeds the serve workload's reply check a reply
// whose digest disagrees with the key's miss and one whose header and
// body disagree.
func TestServeReplyChecks(t *testing.T) {
	g, err := atomicflow.LoadModel("tinyconv")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := atomicflow.Orchestrate(g, atomicflow.Options{SAIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.SolveResponse{Digest: sol.Digest(), Report: sol.Report})
	if err != nil {
		t.Fatal(err)
	}
	s := &serveSession{macs: map[string]int64{"tinyconv": modelMACs(g)}, facts: factsOf(atomicflow.DefaultHardware())}
	ok := reply{status: 200, cache: "hit", digest: sol.Digest(), body: body}
	if _, _, err := s.check(ok, "tinyconv", sol.Digest()); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	bad := map[string]reply{
		"status":         {status: 500, digest: sol.Digest(), body: body},
		"header digest":  {status: 200, digest: "0123", body: body},
		"not the miss's": ok,
	}
	for name, r := range bad {
		want := sol.Digest()
		if name == "not the miss's" {
			want = "4567"
		}
		if _, _, err := s.check(r, "tinyconv", want); err == nil {
			t.Errorf("%s: bad reply accepted", name)
		}
	}
}

// TestCompare checks that -compare reports a simulated metric worse on a
// single seed as regressed, a changed fingerprint, and a steady slowdown
// short of the bound.
func TestCompare(t *testing.T) {
	write := func(name string, cycles func(seed int64) float64, opMS float64, print func(seed int64) string) string {
		var recs []record
		for seed := int64(1); seed <= 10; seed++ {
			recs = append(recs, record{Workload: "compile-b1", Seed: seed, Fingerprint: print(seed), Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{
					"sim_cycles_gmean": {cycles(seed), "cycles"},
					"op_ms_p50":        {opMS + float64(seed)/10, "ms"},
				},
			}})
		}
		path := t.TempDir() + "/" + name
		if err := writeRuns(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cycles := func(seed int64) float64 { return 1e6 + float64(seed) }
	print := func(seed int64) string { return "fp" + strconv.FormatInt(seed, 10) }
	parent := write("parent.json", cycles, 400, print)
	change := write("change.json",
		func(seed int64) float64 {
			if seed == 3 {
				return cycles(seed) + 1
			}
			return cycles(seed)
		},
		440,
		func(seed int64) string {
			if seed == 3 {
				return "other"
			}
			return print(seed)
		})
	var out bytes.Buffer
	if err := compare("../BENCHMARK.json", parent, change, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"regressed: worse on 1 of 10 seeds",
		"differs on 1 of 10 seeds",
		"worse within bound",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("-compare output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestLimit(t *testing.T) {
	l := limit{seconds: 10 * time.Second}
	if !l.more(1, 2, time.Hour, time.Hour) {
		t.Error("stopped inside the fixed op list")
	}
	if !l.more(4, 2, 6*time.Second, 4*time.Second) || l.more(4, 2, 9*time.Second, 8*time.Second) {
		t.Error("the time budget should admit an op expected to end by 10s and refuse one expected at 10s+")
	}
}
