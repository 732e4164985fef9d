package main

import (
	"strings"
	"testing"
)

// gateInput returns a baseline pinning every gated benchmark at 1000
// ns/op with calibration 100, and a measurement at the same machine speed
// where every gated benchmark runs at ratio times its baseline.
func gateInput(ratio float64) (baseline, map[string]float64) {
	base := baseline{CalibrationNS: 100, Benchmarks: map[string]float64{}}
	measured := map[string]float64{calibration: 100}
	for _, name := range gated {
		base.Benchmarks[name] = 1000
		measured[name] = 1000 * ratio
	}
	return base, measured
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		ratio     float64
		pass      bool
		verdict   string
		mentionOf string // substring the failure message must carry
	}{
		{ratio: 1.0, pass: true, verdict: "ok"},
		{ratio: 0.85, pass: true, verdict: "ok"},
		{ratio: 1.09, pass: true, verdict: "ok"},
		{ratio: 1.2, pass: false, verdict: "REGRESSED", mentionOf: "regression beyond 10%"},
		{ratio: 0.75, pass: false, verdict: "STALE", mentionOf: "re-pin the baseline"},
	} {
		base, measured := gateInput(tc.ratio)
		art, lines, err := compare(base, measured, 0.10)
		if err != nil {
			t.Fatalf("ratio %.2f: %v", tc.ratio, err)
		}
		if art.Pass != tc.pass {
			t.Errorf("ratio %.2f: pass = %v, want %v", tc.ratio, art.Pass, tc.pass)
		}
		if len(lines) != len(gated) {
			t.Fatalf("ratio %.2f: %d report lines, want %d", tc.ratio, len(lines), len(gated))
		}
		for _, l := range lines {
			if !strings.HasSuffix(l, " "+tc.verdict) {
				t.Errorf("ratio %.2f: line %q, want verdict %s", tc.ratio, l, tc.verdict)
			}
		}
		if msg := failure(art); tc.pass != (msg == "") || !strings.Contains(msg, tc.mentionOf) {
			t.Errorf("ratio %.2f: failure message %q, want one mentioning %q", tc.ratio, msg, tc.mentionOf)
		}
	}
}

// TestCompareScalesByCalibration checks the machine-speed normalization: a
// host twice as slow (calibration doubled) expects twice the ns/op, so
// doubled timings pass and undoubled ones read as a stale baseline.
func TestCompareScalesByCalibration(t *testing.T) {
	base, measured := gateInput(2)
	measured[calibration] = 200
	if art, _, err := compare(base, measured, 0.10); err != nil || !art.Pass {
		t.Errorf("doubled timings on a doubled calibration: pass %v, err %v", art.Pass, err)
	}
	base, measured = gateInput(1)
	measured[calibration] = 200
	if art, _, err := compare(base, measured, 0.10); err != nil || art.Pass {
		t.Errorf("unchanged timings on a doubled calibration: pass %v, err %v; want a stale failure", art.Pass, err)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base, measured := gateInput(1)
	delete(measured, gated[0])
	if _, _, err := compare(base, measured, 0.10); err == nil {
		t.Error("a gated benchmark missing from the input passed")
	}
	base, measured = gateInput(1)
	delete(base.Benchmarks, gated[0])
	if _, _, err := compare(base, measured, 0.10); err == nil || !strings.Contains(err.Error(), "re-pin") {
		t.Errorf("a gated benchmark missing from the baseline: err %v, want a re-pin error", err)
	}
}

// TestParseBenchMedian checks that repeated runs of one benchmark
// (-count > 1) gate on their median, not on whichever line came last,
// and that the procs suffix is stripped before grouping.
func TestParseBenchMedian(t *testing.T) {
	in := `goos: linux
BenchmarkCalibration-2   	   30000	     38000 ns/op
BenchmarkSimRun-2        	      50	  21000000 ns/op	 9000668 B/op	   17463 allocs/op
BenchmarkSimRun-2        	      50	  90000000 ns/op	 9000668 B/op	   17463 allocs/op
BenchmarkSimRun-2        	      50	  20000000 ns/op	 9000668 B/op	   17463 allocs/op
BenchmarkSimRunPipelined/4-2	      44	  53000000 ns/op
BenchmarkSimRunPipelined/4-2	      44	  51000000 ns/op
PASS
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"Calibration":       38000,
		"SimRun":            21000000, // odd count: the middle run
		"SimRunPipelined/4": 52000000, // even count: mean of the middle two
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v ns/op, want %v", name, got[name], ns)
		}
	}
	if _, err := parseBench(strings.NewReader("PASS\n")); err == nil {
		t.Error("input without benchmark lines parsed without error")
	}
}
