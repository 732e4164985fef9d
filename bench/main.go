// Command bench is the repository's benchmark. It runs four fixed-length
// closed-loop workloads at paper scale and reports the paper's own
// quantities: compile (search) time, serving latency, and the simulated
// latency and energy of the schedules produced, with every output
// checked. A traced run (-trace 1) breaks each op down by layer.
//
// Build and run it from the repository root with bench/run.sh, which
// keeps the build inside .bench_build:
//
//	bash bench/run.sh --workload compile-b1 --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -runs 10 -json runs.json     # every workload, 10 seeds
//	bash bench/run.sh -trace 1 -trace-dir traces   # per-layer tables + Chrome traces
//	bash bench/run.sh -compare parent.json change.json
//
// With -workload the run happens in this process and its last line of
// standard output is the JSON result. Without it, each workload runs in
// a fresh child process of this binary, one at a time.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and more, up to
// maxSetups, while the set-ups have taken less than setupBudget seconds,
// so a sub-millisecond set-up is sampled hundreds of times. setup_s is the
// median.
const (
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = 0.5
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	traceDir  string
	jsonOut   string
	runs      int
	ops       int
	tmp       string
	compare   bool
	benchmark string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 25, "time budget of the measured loop")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run printing the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write one Chrome trace-event file per workload to this directory")
	fs.StringVar(&o.jsonOut, "json", "", "write every run's result to this file")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload without -workload, with seeds seed, seed+1, ...")
	fs.IntVar(&o.ops, "ops", 0, "measure exactly this many ops instead of -seconds (smoke tests)")
	fs.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory (the serve workload's store)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json files: -compare parent.json change.json")
	fs.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "benchmark declaration holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare takes two result files: parent.json change.json")
			break
		}
		err = compare(o.benchmark, fs.Arg(0), fs.Arg(1), stdout)
	case o.trace != 0 && o.trace != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		w, ok := workloadByName(o.workload)
		if !ok {
			err = fmt.Errorf("unknown workload %q", o.workload)
			break
		}
		var rec record
		if rec, err = runOne(w, o, stdout); err != nil {
			break
		}
		if err = writeRuns(o.jsonOut, []record{rec}); err != nil {
			break
		}
		var line []byte
		if line, err = json.Marshal(rec.Result); err != nil {
			break
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Result.Correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return 0
}

// runOne sets the workload up repeatedly, keeps the last session,
// and measures it.
func runOne(w workload, o options, out io.Writer) (rec record, err error) {
	rec = record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d GOMAXPROCS %d NumCPU %d\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	e := env{tmp: o.tmp, traced: o.trace == 1}
	var sess session
	var setups []float64
	var spent float64
	speed := newHostSpeed(5)
	for len(setups) < minSetups || spent < setupBudget && len(setups) < maxSetups {
		if sess != nil {
			if err := sess.close(); err != nil {
				return rec, fmt.Errorf("tear-down: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		if sess, err = w.open(o.seed, e); err != nil {
			return rec, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	setupScale := speed.next(5)
	defer func() {
		if cerr := sess.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	l := limit{seconds: time.Duration(o.seconds) * time.Second, ops: o.ops}
	if o.trace == 1 {
		rec.Result, err = traced(w, o, sess, l, out)
		return rec, err
	}

	m, err := sess.measure(l, w.fixed)
	if err != nil {
		return rec, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return rec, err
	}
	var cycles, energy []float64
	for _, r := range m.fixed {
		cycles = append(cycles, float64(r.Cycles))
		energy = append(energy, r.Energy.TotalMJ())
	}
	raw := map[string]float64{
		"setup_s":   median(setups),
		"ops_per_s": float64(m.completed) / m.rawWindow.Seconds(),
		"op_ms_p50": m.p50(m.rawLat, m.rawParts),
	}
	vals := map[string]float64{
		"setup_s":             raw["setup_s"] * setupScale,
		"ops_per_s":           float64(m.completed) / m.window.Seconds(),
		"op_ms_p50":           m.p50(m.lat, m.parts),
		"sim_cycles_gmean":    gmean(cycles),
		"sim_energy_mj_gmean": gmean(energy),
		"peak_rss_mb":         rss,
		"alloc_mb_per_op":     m.rt.allocBytes / 1e6 / float64(max(m.attempted, 1)),
	}
	sc := m.speed.scales
	fmt.Fprintf(out, "host speed: times below scaled to a %.4g ms calibration kernel, by x%.4f to x%.4f (median x%.4f) over %d timed units; set-up x%.4f\n",
		refCalibrationMS, slices.Min(sc), slices.Max(sc), median(sc), len(sc), setupScale)
	report(out, m, setups, vals, raw)
	rec.Fingerprint = fingerprint(m.digests)
	rec.Result = result{Correct: len(m.failures) == 0, Attempted: m.attempted, Failed: len(m.failures)}
	rec.Result.Metrics, err = project(endToEnd, vals)
	return rec, err
}

func report(out io.Writer, m *measurement, setups []float64, vals, raw map[string]float64) {
	for _, d := range endToEnd {
		fmt.Fprintf(out, "%-22s %14.6g %-7s", d.name, vals[d.name], d.unit)
		if r, ok := raw[d.name]; ok {
			fmt.Fprintf(out, " (raw %.6g)", r)
		}
		switch {
		case d.name == "setup_s":
			fmt.Fprintf(out, " median of %d set-ups, %.4g to %.4g s", len(setups), slices.Min(setups), slices.Max(setups))
		case d.name == "op_ms_p50":
			fmt.Fprintf(out, " n=%d", len(m.lat))
		case d.name == "ops_per_s":
			fmt.Fprintf(out, " %d ops over %.2fs", m.completed, m.window.Seconds())
		case strings.HasPrefix(d.name, "sim_"):
			fmt.Fprintf(out, " over the %d Reports of the fixed op list", len(m.fixed))
		}
		fmt.Fprintln(out)
	}
	if name, q := tailLabel(len(m.lat)); name != "" {
		fmt.Fprintf(out, "tail: op_ms_%s %.6g ms (raw %.6g, n=%d)\n", name, quantile(m.lat, q), quantile(m.rawLat, q), len(m.lat))
	}
	for _, label := range sortedKeys(m.parts) {
		xs := m.parts[label]
		fmt.Fprintf(out, "p50.%s %.6g ms (n=%d)\n", label, median(xs), len(xs))
	}
	fmt.Fprintf(out, "failed_frac %.6g (%d of %d ops)\n", div(float64(len(m.failures)), float64(m.attempted)), len(m.failures), m.attempted)
	fmt.Fprintf(out, "%s %s (%d digests of the fixed op list)\n", fingerprintLabel, fingerprint(m.digests), len(m.digests))
	printFailures(out, m)
}

func printFailures(out io.Writer, m *measurement) {
	for k, err := range m.failures {
		if k == 5 {
			fmt.Fprintf(out, "FAILED: ... %d more\n", len(m.failures)-k)
			break
		}
		fmt.Fprintf(out, "FAILED: %v\n", err)
	}
}

// maxOtherShare is the most of a traced op's wall time the layer spans
// may leave unattributed.
const maxOtherShare = 0.05

func traced(w workload, o options, sess session, l limit, out io.Writer) (result, error) {
	t := newTracer(o.traceDir != "")
	m, err := sess.trace(l, t)
	if err != nil {
		return result{}, err
	}
	a := t.agg
	vals := a.perLayerValues()
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-30s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	tr, un := div(ms(a.tracedTime), float64(a.ops)), div(ms(a.untracedTime), float64(a.untracedOps))
	fmt.Fprintf(out, "tracing overhead: %.4g ms per op traced vs %.4g ms untraced (%+.4g ms, %d traced and %d untraced ops)\n",
		tr, un, tr-un, a.ops, a.untracedOps)
	printFailures(out, m)
	correct := len(m.failures) == 0
	if vals["other.share"] > maxOtherShare {
		fmt.Fprintf(out, "FAILED: other.share %.4g exceeds %.2g: the layer spans miss part of the op\n", vals["other.share"], maxOtherShare)
		correct = false
	}
	if o.traceDir != "" {
		if err := t.writeChrome(o.traceDir, w.name); err != nil {
			return result{}, err
		}
	}
	res := result{Correct: correct, Attempted: m.attempted, Failed: len(m.failures)}
	res.Metrics, err = project(perLayer, vals)
	return res, err
}

// record is one run in a -json file. Fingerprint, the hash of the fixed
// op list's digests, is set for untraced runs.
type record struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       int    `json:"trace"`
	Result      result `json:"result"`
	Fingerprint string `json:"digest_fingerprint,omitempty"`
}

const fingerprintLabel = "digest_fingerprint"

type runsFile struct {
	Runs []record `json:"runs"`
}

func writeRuns(path string, recs []record) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(runsFile{recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload -runs times, each run in a fresh child
// process of this binary, one at a time, so each run's memory and GC
// state are its own.
func runAll(o options, out, errOut io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []record
	var failed []string
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			seed := o.seed + int64(r)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
				"-ops", strconv.Itoa(o.ops), "-tmp", o.tmp}
			if o.traceDir != "" {
				args = append(args, "-trace-dir", o.traceDir)
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(out, &buf), errOut
			runErr := cmd.Run()
			res, perr := lastResult(buf.Bytes())
			if perr != nil {
				return fmt.Errorf("%s seed %d: %v (%v)", w.name, seed, perr, runErr)
			}
			if !res.Correct {
				failed = append(failed, fmt.Sprintf("%s seed %d", w.name, seed))
			}
			recs = append(recs, record{w.name, seed, o.seconds, o.trace, res, printedFingerprint(buf.Bytes())})
		}
	}
	summarize(out, recs)
	if err := writeRuns(o.jsonOut, recs); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("incorrect outputs in %s", strings.Join(failed, ", "))
	}
	return nil
}

// printedFingerprint returns the digest_fingerprint a run printed, or "".
func printedFingerprint(stdout []byte) string {
	for _, line := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, fingerprintLabel+" "); ok {
			return strings.Fields(rest)[0]
		}
	}
	return ""
}

func lastResult(stdout []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// summarize prints each (workload, metric) median over the runs.
func summarize(out io.Writer, recs []record) {
	fmt.Fprintf(out, "\n%-12s %-30s %14s %7s %s\n", "workload", "metric", "median", "runs", "unit")
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		for _, r := range recs {
			if r.Workload != w.name {
				continue
			}
			for name, v := range r.Result.Metrics {
				vals[name] = append(vals[name], v.Value)
				units[name] = v.Unit
			}
		}
		for _, name := range sortedKeys(vals) {
			fmt.Fprintf(out, "%-12s %-30s %14.6g %7d %s\n", w.name, name, median(vals[name]), len(vals[name]), units[name])
		}
	}
}
