// Command benchgate is the bench-regression gate: it parses `go test
// -bench` output, normalizes the gated benchmarks' ns/op against a
// checked-in baseline using a machine-speed calibration benchmark, and
// fails (exit 1) when any gated benchmark regressed beyond the
// threshold. It also writes the full comparison as a JSON artifact
// (BENCH_sim.json in CI) so every run leaves an inspectable record.
//
// Usage:
//
//	go test -run xxx -count 5 -bench 'SimRun|PlaceRound|Calibration' . | tee bench.txt
//	benchgate -baseline testdata/bench_baseline.json -out BENCH_sim.json bench.txt
//	benchgate -baseline testdata/bench_baseline.json -update bench.txt   # re-pin
//
// Normalization: raw ns/op is not comparable across CI runner
// generations, so the baseline stores the recording machine's
// BenchmarkCalibration ns/op (a fixed pure-integer kernel). A gated
// benchmark's expected value on the current machine is
//
//	baseline_ns x current_calibration_ns / baseline_calibration_ns
//
// and the gate fails when measured ns/op exceeds expected x (1+threshold).
// It also fails when measured ns/op falls below expected x staleFloor: the
// code got that much faster, and until the baseline is re-pinned the gate
// would let a later regression of the same size through unnoticed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// calibration is the yardstick benchmark's canonical (suffix-stripped) name.
const calibration = "Calibration"

// gated lists the benchmarks the gate enforces; others found in the
// input are recorded in the artifact but never fail the build.
var gated = []string{"SimRun", "SimRunDeep", "SimRunB8", "PlaceRound", "AtomBuild", "ScheduleBuild", "ScheduleBuildInception", "SearchSetup"}

// staleFloor is the measured/expected ratio below which a gated benchmark
// fails the gate as a stale baseline.
const staleFloor = 0.8

// baseline is the checked-in reference (testdata/bench_baseline.json).
type baseline struct {
	// CalibrationNS is BenchmarkCalibration ns/op on the machine that
	// recorded the baseline.
	CalibrationNS float64            `json:"calibration_ns"`
	Benchmarks    map[string]float64 `json:"benchmarks"` // name -> ns/op
}

// result is one benchmark's verdict in the JSON artifact.
type result struct {
	Name       string  `json:"name"`
	NSPerOp    float64 `json:"ns_per_op"`
	BaselineNS float64 `json:"baseline_ns,omitempty"`
	ExpectedNS float64 `json:"expected_ns,omitempty"` // baseline scaled by calibration
	Ratio      float64 `json:"ratio,omitempty"`       // measured / expected
	Gated      bool    `json:"gated"`
	Regressed  bool    `json:"regressed"`
	Stale      bool    `json:"stale,omitempty"` // ratio below staleFloor: re-pin
}

// artifact is the BENCH_sim.json schema.
type artifact struct {
	CalibrationNS float64  `json:"calibration_ns"`
	ScaleFactor   float64  `json:"scale_factor"` // current/baseline calibration
	Threshold     float64  `json:"threshold"`
	Results       []result `json:"results"`
	Pass          bool     `json:"pass"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSimRun-4   28   84292486 ns/op   9000668 B/op   17463 allocs/op
//	BenchmarkSimRunPipelined/4-4   44   53053706 ns/op
var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	var (
		basePath  = flag.String("baseline", "testdata/bench_baseline.json", "checked-in baseline JSON")
		outPath   = flag.String("out", "", "write the comparison artifact JSON here")
		update    = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
		threshold = flag.Float64("threshold", 0.10, "relative ns/op regression that fails the gate")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	calib, ok := measured[calibration]
	if !ok {
		fatal(fmt.Errorf("no Benchmark%s in input — the gate cannot normalize for machine speed", calibration))
	}

	if *update {
		b := baseline{CalibrationNS: calib, Benchmarks: map[string]float64{}}
		for _, name := range gated {
			ns, ok := measured[name]
			if !ok {
				fatal(fmt.Errorf("gated benchmark %s missing from input", name))
			}
			b.Benchmarks[name] = ns
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline rewritten (%s, calibration %.0f ns/op)\n", *basePath, calib)
		return
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *basePath, err))
	}
	if base.CalibrationNS <= 0 {
		fatal(fmt.Errorf("%s: calibration_ns missing or non-positive", *basePath))
	}
	art, lines, err := compare(base, measured, *threshold)
	if err != nil {
		fatal(fmt.Errorf("%w (baseline %s)", err, *basePath))
	}
	for _, l := range lines {
		fmt.Println(l)
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !art.Pass {
		fmt.Fprintln(os.Stderr, failure(art))
		os.Exit(1)
	}
}

// compare gates the measured ns/op (which must include the calibration
// benchmark) against base: it returns the artifact, one report line per
// gated benchmark, and an error when a gated benchmark is missing from
// either side.
func compare(base baseline, measured map[string]float64, threshold float64) (artifact, []string, error) {
	calib := measured[calibration]
	scale := calib / base.CalibrationNS
	art := artifact{CalibrationNS: calib, ScaleFactor: scale, Threshold: threshold, Pass: true}
	isGated := map[string]bool{}
	for _, g := range gated {
		isGated[g] = true
	}
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	at := map[string]int{} // name -> index in art.Results
	for _, name := range names {
		r := result{Name: name, NSPerOp: measured[name], Gated: isGated[name]}
		if bns, ok := base.Benchmarks[name]; ok {
			r.BaselineNS = bns
			r.ExpectedNS = bns * scale
			r.Ratio = r.NSPerOp / r.ExpectedNS
			r.Regressed = r.Gated && r.Ratio > 1+threshold
			r.Stale = r.Gated && r.Ratio < staleFloor
		}
		at[name] = len(art.Results)
		art.Results = append(art.Results, r)
	}
	var lines []string
	for _, name := range gated {
		i, ok := at[name]
		if !ok {
			return art, nil, fmt.Errorf("gated benchmark %s missing from input", name)
		}
		r := art.Results[i]
		if r.BaselineNS == 0 {
			return art, nil, fmt.Errorf("gated benchmark %s missing from baseline — re-pin with -update", name)
		}
		verdict := "ok"
		switch {
		case r.Regressed:
			verdict = "REGRESSED"
		case r.Stale:
			verdict = "STALE"
		}
		art.Pass = art.Pass && verdict == "ok"
		lines = append(lines, fmt.Sprintf("benchgate: %-12s %12.0f ns/op  expected %12.0f  ratio %.3f  %s",
			name, r.NSPerOp, r.ExpectedNS, r.Ratio, verdict))
	}
	return art, lines, nil
}

// failure explains a failed gate: regressions first, then stale baselines.
func failure(art artifact) string {
	var msgs []string
	for _, r := range art.Results {
		if r.Regressed {
			msgs = append(msgs, fmt.Sprintf("benchgate: %s ns/op regression beyond %.0f%% — investigate or re-pin the baseline with -update", r.Name, 100*art.Threshold))
		}
	}
	for _, r := range art.Results {
		if r.Stale {
			msgs = append(msgs, fmt.Sprintf("benchgate: %s runs at %.2f of its baseline, below %.2f — re-pin the baseline with -update", r.Name, r.Ratio, staleFloor))
		}
	}
	return strings.Join(msgs, "\n")
}

// parseBench extracts name -> ns/op from `go test -bench` output. The
// -<GOMAXPROCS> suffix is stripped so names are machine-independent;
// sub-benchmark paths (SimRunPipelined/4) are kept as-is. A name
// measured more than once (-count > 1) reads the median of its runs, so
// one noisy run neither fails nor passes the gate on its own.
func parseBench(r io.Reader) (map[string]float64, error) {
	runs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		// Strip the trailing -N procs suffix from the last path element.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		runs[name] = append(runs[name], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	out := make(map[string]float64, len(runs))
	for name, ns := range runs {
		out[name] = median(ns)
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); it sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
